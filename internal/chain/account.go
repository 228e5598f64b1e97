// Package chain implements the credibility substrate of TradeFL
// (Sec. III-F): a small proof-of-authority blockchain with ed25519-signed
// transactions, hash-linked blocks and a deterministic state machine that
// hosts the TradeFL settlement contract (Table I). It stands in for the
// paper's Ethereum private chain + Solidity prototype: what the mechanism
// needs from the chain is immutability, traceability, automatic execution
// and balance transfers, all of which this package provides with the
// standard library only (DESIGN.md §2).
package chain

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"

	"tradefl/internal/randx"
)

// Address identifies an account: the hex encoding of the first 20 bytes of
// the SHA-256 hash of the public key.
type Address string

// ZeroAddress is the empty address.
const ZeroAddress Address = ""

// Account is a keypair with its derived address.
type Account struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
	addr Address
}

// NewAccount deterministically derives an account from a seed source; use
// distinct seeds for distinct organizations.
func NewAccount(src *randx.Source) (*Account, error) {
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(src.Intn(256))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	pub, ok := priv.Public().(ed25519.PublicKey)
	if !ok {
		return nil, errors.New("chain: unexpected public key type")
	}
	return &Account{pub: pub, priv: priv, addr: AddressOf(pub)}, nil
}

// AddressOf derives the address of a public key.
func AddressOf(pub ed25519.PublicKey) Address {
	sum := sha256.Sum256(pub)
	return Address(hex.EncodeToString(sum[:20]))
}

// Address returns the account's address.
func (a *Account) Address() Address { return a.addr }

// PublicKey returns the account's public key bytes.
func (a *Account) PublicKey() []byte {
	out := make([]byte, len(a.pub))
	copy(out, a.pub)
	return out
}

// Sign signs msg with the account's private key.
func (a *Account) Sign(msg []byte) []byte {
	return ed25519.Sign(a.priv, msg)
}

// Verify checks sig over msg against pub.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}
