package chain

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// Commit-reveal contribution reporting. The paper assumes reported
// {d*, f*} are truthful (footnote 6, deferring verification to TEEs); a
// cheaper on-chain hardening is to remove the *last-mover advantage*: an
// organization that could watch others' submissions land before sending its
// own could condition its report on theirs. With commit-reveal, every
// member first binds itself to a salted hash of its contribution
// (contributionCommit), and reveals only after all commitments are in
// (contributionReveal); the contract checks the hash. The original
// single-shot contributionSubmit remains available for consortia that do
// not need the hardening — the two modes cannot be mixed in one contract
// instance.

// Commit-reveal errors callers can match with errors.Is.
var (
	ErrAlreadyCommitted = errors.New("contract: contribution already committed")
	ErrMissingCommits   = errors.New("contract: not all organizations have committed")
	ErrNoCommitment     = errors.New("contract: no commitment to reveal against")
	ErrBadReveal        = errors.New("contract: reveal does not match commitment")
	ErrModeMixed        = errors.New("contract: cannot mix direct submit with commit-reveal")
)

// Additional ABI functions for the commit-reveal mode.
const (
	FnContributionCommit Function = "contributionCommit"
	FnContributionReveal Function = "contributionReveal"
)

// CommitArgs is the argument of contributionCommit.
type CommitArgs struct {
	// Hash is hex(SHA-256(d||f||salt)) as computed by CommitmentHash.
	Hash string `json:"hash"`
}

// RevealArgs is the argument of contributionReveal.
type RevealArgs struct {
	Contribution
	// Salt is the random blinding value chosen at commit time.
	Salt string `json:"salt"`
}

// CommitmentHash computes the binding hash of a contribution and salt.
func CommitmentHash(c Contribution, salt string) string {
	payload := fmt.Sprintf("%.17g|%.17g|%s", c.D, c.F, salt)
	sum := sha256.Sum256([]byte(payload))
	return hex.EncodeToString(sum[:])
}

// contributionCommit stores the caller's binding hash.
func (c *Contract) contributionCommit(from Address, args json.RawMessage, value Wei) error {
	if value != 0 {
		return fmt.Errorf("%w: contributionCommit is not payable", ErrBadArgs)
	}
	ms, ok := c.MemberData[from]
	if !ok || !ms.Registered {
		return fmt.Errorf("%w: %s", ErrNotRegistered, from)
	}
	if ms.Submitted {
		return fmt.Errorf("%w: %s", ErrModeMixed, from)
	}
	if ms.Commitment != "" {
		return fmt.Errorf("%w: %s", ErrAlreadyCommitted, from)
	}
	var ca CommitArgs
	if err := json.Unmarshal(args, &ca); err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	if len(ca.Hash) != 64 {
		return fmt.Errorf("%w: commitment hash must be 64 hex chars", ErrBadArgs)
	}
	if _, err := hex.DecodeString(ca.Hash); err != nil {
		return fmt.Errorf("%w: commitment hash not hex", ErrBadArgs)
	}
	ms.Commitment = ca.Hash
	c.MemberData[from] = ms
	return nil
}

// contributionReveal opens the caller's commitment; allowed only once every
// registered member has committed, so no reveal can inform another
// member's choice.
func (c *Contract) contributionReveal(from Address, args json.RawMessage, value Wei) error {
	if value != 0 {
		return fmt.Errorf("%w: contributionReveal is not payable", ErrBadArgs)
	}
	ms, ok := c.MemberData[from]
	if !ok || !ms.Registered {
		return fmt.Errorf("%w: %s", ErrNotRegistered, from)
	}
	if ms.Commitment == "" {
		return fmt.Errorf("%w: %s", ErrNoCommitment, from)
	}
	if ms.Submitted {
		return fmt.Errorf("%w: %s", ErrAlreadySubmitted, from)
	}
	for _, m := range c.Params.Members {
		peer := c.MemberData[m]
		if !peer.Registered || peer.Commitment == "" {
			return fmt.Errorf("%w: waiting for %s", ErrMissingCommits, m)
		}
	}
	var ra RevealArgs
	if err := json.Unmarshal(args, &ra); err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	if !ra.Contribution.inRange() {
		return fmt.Errorf("%w: contribution out of range", ErrBadArgs)
	}
	if CommitmentHash(ra.Contribution, ra.Salt) != ms.Commitment {
		return fmt.Errorf("%w: %s", ErrBadReveal, from)
	}
	ms.Submitted = true
	ms.Contribution = ra.Contribution
	c.MemberData[from] = ms
	return nil
}
