package chain

import (
	"crypto/sha256"
	"encoding/hex"
)

// ledger is the whole mutable state of the chain: account balances, account
// nonces and the contract. Its JSON form is what the state root hashes.
// Blockchain.execMu guards it; only block execution writes it.
type ledger struct {
	Balances map[Address]Wei    `json:"balances"`
	Nonces   map[Address]uint64 `json:"nonces"`
	Contract *Contract          `json:"contract"`

	// spare is the member map snapContract copies into; see there.
	spare map[Address]memberState
	// paramsJSON is Contract.Params encoded; see appendJSON.
	paramsJSON []byte
}

func newLedger(contract *Contract) *ledger {
	return &ledger{
		Balances: map[Address]Wei{},
		Nonces:   map[Address]uint64{},
		Contract: contract,
		spare:    map[Address]memberState{},
	}
}

// root is the state root: the SHA-256 of the ledger's JSON form (maps
// marshal with sorted keys, so the digest is deterministic).
func (led *ledger) root() (string, error) {
	raw, err := led.appendJSON(make([]byte, 0, len(led.paramsJSON)+256*(len(led.Balances)+len(led.Contract.Records)+2)))
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// accountWei sums every account balance — the account half of the
// conservation audit.
func (led *ledger) accountWei() Wei {
	var sum Wei
	for _, v := range led.Balances {
		sum += v
	}
	return sum
}

// nonceSum sums every account nonce; a block must move it by exactly its tx
// count (every pool-admitted tx — success or failure — consumes one nonce).
func (led *ledger) nonceSum() int64 {
	var sum int64
	for _, v := range led.Nonces {
		sum += int64(v)
	}
	return sum
}

// escrowWei sums the wei held by the contract itself: posted deposits plus
// calculated-but-untransferred payoffs (payoffs sum to zero, so this is
// Σ deposits between calculate and transfer).
func (led *ledger) escrowWei() Wei {
	var sum Wei
	for _, ms := range led.Contract.MemberData {
		sum += ms.Deposit + ms.Payoff
	}
	return sum
}

// snapContract snapshots the contract for rollback. Params is immutable
// during execution, memberState is a pure value and Records is append-only,
// so a copy of the member map beside the old slice header is an exact
// snapshot. The copy goes into the ledger's spare map, which is reused from
// call to call: a plain clone per contract call was a fifth of the bytes a
// settlement allocates.
func (led *ledger) snapContract() Contract {
	clear(led.spare)
	for a, ms := range led.Contract.MemberData {
		led.spare[a] = ms
	}
	snap := *led.Contract
	snap.MemberData = led.spare
	return snap
}

// restoreContract rolls the contract back to snap (the latest snapContract);
// the member map the failed call wrote to becomes the spare.
func (led *ledger) restoreContract(snap Contract) {
	led.spare = led.Contract.MemberData
	*led.Contract = snap
}

// acctSnap remembers one account's exact pre-transaction shape — value and
// key presence — so a failed transaction restores the maps bit-for-bit.
type acctSnap struct {
	bal    Wei
	hadBal bool
	non    uint64
	hadNon bool
}

func (led *ledger) snapAcct(addr Address) acctSnap {
	var s acctSnap
	s.bal, s.hadBal = led.Balances[addr]
	s.non, s.hadNon = led.Nonces[addr]
	return s
}

func (led *ledger) restoreAcct(addr Address, s acctSnap) {
	if s.hadBal {
		led.Balances[addr] = s.bal
	} else {
		delete(led.Balances, addr)
	}
	if s.hadNon {
		led.Nonces[addr] = s.non
	} else {
		delete(led.Nonces, addr)
	}
}
