package chain

import (
	"crypto/sha256"
	"encoding/hex"
)

// Every block header commits to its transactions through TxRoot, the
// Merkle root of their hashes, which VerifyChain recomputes.

// merkleLeaf domain-separates leaves from interior nodes (second-preimage
// hardening, as in RFC 6962).
func merkleLeaf(txHash string) string {
	sum := sha256.Sum256(append([]byte{0x00}, []byte(txHash)...))
	return hex.EncodeToString(sum[:])
}

func merkleNode(left, right string) string {
	payload := append([]byte{0x01}, []byte(left)...)
	payload = append(payload, []byte(right)...)
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// MerkleRoot computes the root of the transaction hash list. An empty
// block has the hash of an empty leaf set (a fixed sentinel).
func MerkleRoot(txHashes []string) string {
	if len(txHashes) == 0 {
		return merkleLeaf("")
	}
	level := make([]string, len(txHashes))
	for i, h := range txHashes {
		level[i] = merkleLeaf(h)
	}
	for len(level) > 1 {
		next := make([]string, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, merkleNode(level[i], level[i+1]))
			} else {
				// Odd node pairs with itself.
				next = append(next, merkleNode(level[i], level[i]))
			}
		}
		level = next
	}
	return level[0]
}

// txHashes computes the id of every transaction in a block.
func txHashes(txs []Transaction) ([]string, error) {
	out := make([]string, len(txs))
	for i := range txs {
		h, err := txs[i].Hash()
		if err != nil {
			return nil, err
		}
		out[i] = h
	}
	return out, nil
}
