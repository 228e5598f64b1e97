package chain

import "errors"

// Test hooks that reach into sealed blocks. Production code never mutates
// an installed block; these exist so tests can play the adversary.

// TamperBlockForTest mutates a past block's transaction value, to
// demonstrate that VerifyChain catches tampering.
func (bc *Blockchain) TamperBlockForTest(height uint64, txIdx int) error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if height >= uint64(len(bc.blocks)) || txIdx >= len(bc.blocks[height].Txs) {
		return errors.New("chain: tamper target out of range")
	}
	bc.blocks[height].Txs[txIdx].Value += 1
	return nil
}

// resealFrom plays a malicious sealer: it applies mutate to the block at
// height, recomputes that block's TxRoot, and re-links and re-seals it and
// every later block with the authority key — so seals, links and Merkle
// roots all verify and only the transaction checks can object. The witness
// is left exactly as admission wrote it.
func (bc *Blockchain) resealFrom(height uint64, mutate func(b *Block)) error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if height == 0 || height >= uint64(len(bc.blocks)) {
		return errors.New("chain: reseal target out of range")
	}
	b := bc.blocks[height]
	mutate(b)
	hashes, err := txHashes(b.Txs)
	if err != nil {
		return err
	}
	b.TxRoot = MerkleRoot(hashes)
	for h := height; h < uint64(len(bc.blocks)); h++ {
		prev, err := bc.blocks[h-1].HeaderHash()
		if err != nil {
			return err
		}
		bc.blocks[h].PrevHash = prev
		if err := bc.seal(bc.blocks[h]); err != nil {
			return err
		}
	}
	return nil
}

// setWitness replaces the admission witness of the block at height.
func (bc *Blockchain) setWitness(height uint64, edit func(w []string) []string) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	b := bc.blocks[height]
	b.admitted = edit(append([]string(nil), b.admitted...))
}

// sigVerifications reads the (admit, audit) signature-verification counters.
func sigVerifications() (admit, audit int64) {
	return mSigAdmit.Value(), mSigAudit.Value()
}
