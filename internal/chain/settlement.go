package chain

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"tradefl/internal/game"
	"tradefl/internal/randx"
)

// Settlement is one game's Fig. 3 settlement (Sec. III-F): the genesis that
// deploys its contract and the signing keys of its members. Every process
// that settles a game derives it from the same (config, seed), so the node,
// each organization client and an in-process settlement agree on every key,
// parameter and deposit.
type Settlement struct {
	// Authority seals the chain.
	Authority *Account
	// Accounts are the members' signing keys, in cfg.Orgs order.
	Accounts []*Account
	Params   ContractParams
	Alloc    GenesisAlloc
	// Deposits[i] is member i's depositSubmit bond.
	Deposits []Wei
}

// NewSettlement derives the settlement of cfg from seed. The authority is
// the first NewAccount draw of randx.New(seed) and member i the (i+2)-th.
// A member's DataBits is its quality-weighted credit q_i·s_i, the x_i the
// game pays; its deposit is MinDeposit at the top CPU level of any
// organization, and genesis funds it with twice that.
func NewSettlement(cfg *game.Config, seed int64) (*Settlement, error) {
	src := randx.New(seed)
	authority, err := NewAccount(src)
	if err != nil {
		return nil, err
	}
	n := cfg.N()
	s := &Settlement{Authority: authority, Accounts: make([]*Account, n), Alloc: GenesisAlloc{}, Deposits: make([]Wei, n)}
	members := make([]Address, n)
	bits := make([]float64, n)
	fMax := 0.0
	for i, o := range cfg.Orgs {
		if s.Accounts[i], err = NewAccount(src); err != nil {
			return nil, err
		}
		members[i] = s.Accounts[i].Address()
		bits[i] = cfg.DataCredit(i)
		fMax = max(fMax, o.CPULevels[len(o.CPULevels)-1])
	}
	s.Params = ContractParams{Members: members, Rho: cfg.Rho, DataBits: bits, Gamma: cfg.Gamma, Lambda: cfg.Lambda}
	for i, m := range members {
		s.Deposits[i] = MinDeposit(s.Params, i, fMax)
		s.Alloc[m] = 2 * s.Deposits[i]
	}
	return s, nil
}

// Stages signs the lifecycle of profile as the four blocks of Fig. 3: every
// member's depositSubmit, every member's contributionSubmit, member 0's
// payoffCalculate, then each member's payoffTransfer followed by its
// profileRecord. Nonces count from 0 in that order, so the stages admit on
// the genesis chain one sealed block after another.
func (s *Settlement) Stages(profile game.Profile) ([4][]Transaction, error) {
	var stages [4][]Transaction
	if len(profile) != len(s.Accounts) {
		return stages, fmt.Errorf("chain: profile has %d strategies for %d members", len(profile), len(s.Accounts))
	}
	nonces := make([]uint64, len(s.Accounts))
	var err error
	add := func(stage, i int, fn Function, args any, value Wei) {
		tx, terr := NewTransaction(s.Accounts[i], nonces[i], fn, args, value)
		if terr != nil {
			err = errors.Join(err, terr)
			return
		}
		nonces[i]++
		stages[stage] = append(stages[stage], *tx)
	}
	for i := range s.Accounts {
		add(0, i, FnDepositSubmit, nil, s.Deposits[i])
	}
	for i, st := range profile {
		add(1, i, FnContributionSubmit, Contribution{D: st.D, F: st.F}, 0)
	}
	add(2, 0, FnPayoffCalculate, nil, 0)
	for i := range s.Accounts {
		add(3, i, FnPayoffTransfer, nil, 0)
		add(3, i, FnProfileRecord, nil, 0)
	}
	return stages, err
}

// Walk is member i's own Fig. 3 lifecycle over c, settling strategy st:
// depositSubmit, then contributionSubmit (with commit, contributionCommit
// and, once every member has committed, contributionReveal), then
// payoffCalculate, payoffTransfer and profileRecord. It sends each
// transaction, asks the node to seal it unless the node already has, and
// waits for its receipt; before the contribution and before the payoff it
// polls the contract status until every member has caught up. ctx bounds
// the walk. Every phase is idempotent (IsAlready) and the commit salt
// derives from the member's key, so a re-run resumes where a cancelled
// walk stopped. Progress lines go to w.
func (s *Settlement) Walk(ctx context.Context, c *Client, i int, st game.Strategy, commit bool, w io.Writer) error {
	acct, dep := s.Accounts[i], s.Deposits[i]
	send := func(fn Function, args any, value Wei) error {
		nonce, err := c.Nonce(acct.Address())
		if err != nil {
			return err
		}
		tx, err := NewTransaction(acct, nonce, fn, args, value)
		if err != nil {
			return err
		}
		if err := c.SubmitTxCtx(ctx, tx); err != nil {
			return err
		}
		hash, err := tx.Hash()
		if err != nil {
			return err
		}
		// A node that seals on its own cadence has sealed the tx within a
		// poll; tradefl-chain seals only when asked. Another member's seal
		// may take the tx first either way, so its outcome is the chain-wide
		// receipt, not the block SealBlock returns.
		if err := pollWait(ctx); err != nil {
			return err
		}
		if _, err := c.Receipt(hash); err != nil {
			if _, err := c.SealBlock(); err != nil {
				return err
			}
		}
		return c.AwaitReceipt(ctx, hash)
	}
	phase := func(name string, fn Function, args any, value Wei) error {
		if err := send(fn, args, value); err != nil && !IsAlready(err) {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	waitAll := func(what string, done func(ContractStatus) int) error {
		for {
			status, err := c.Status()
			if err != nil {
				return err
			}
			if done(status) == status.Members {
				return nil
			}
			if err := pollWait(ctx); err != nil {
				return fmt.Errorf("waiting for %s: %w", what, err)
			}
		}
	}

	if err := phase("deposit", FnDepositSubmit, nil, dep); err != nil {
		return err
	}
	fmt.Fprintf(w, "deposited %v tokens\n", FromWei(dep))
	if err := waitAll("registrations", func(cs ContractStatus) int { return cs.Registered }); err != nil {
		return err
	}
	contrib := Contribution{D: st.D, F: st.F}
	if commit {
		salt, err := s.commitSalt(i, contrib)
		if err != nil {
			return err
		}
		if err := phase("commit", FnContributionCommit, CommitArgs{Hash: CommitmentHash(contrib, salt)}, 0); err != nil {
			return err
		}
		fmt.Fprintln(w, "contribution committed")
		// The contract rejects a reveal until the last commitment lands.
		for {
			err := send(FnContributionReveal, RevealArgs{Contribution: contrib, Salt: salt}, 0)
			if err == nil || IsAlready(err) {
				break
			}
			if !strings.Contains(err.Error(), ErrMissingCommits.Error()) {
				return fmt.Errorf("reveal: %w", err)
			}
			if err := pollWait(ctx); err != nil {
				return fmt.Errorf("reveal: %w", err)
			}
		}
		fmt.Fprintln(w, "contribution revealed")
	} else {
		if err := phase("submit", FnContributionSubmit, contrib, 0); err != nil {
			return err
		}
		fmt.Fprintln(w, "contribution submitted")
	}
	if err := waitAll("submissions", func(cs ContractStatus) int { return cs.Submitted }); err != nil {
		return err
	}
	// Any member may win the payoffCalculate race; the rest see IsAlready.
	if err := phase("calculate", FnPayoffCalculate, nil, 0); err != nil {
		return err
	}
	before, err := c.Balance(acct.Address())
	if err != nil {
		return err
	}
	if err := phase("transfer", FnPayoffTransfer, nil, 0); err != nil {
		return err
	}
	if err := phase("record", FnProfileRecord, nil, 0); err != nil {
		return err
	}
	after, err := c.Balance(acct.Address())
	if err != nil {
		return err
	}
	if err := c.VerifyChain(); err != nil {
		return fmt.Errorf("chain verification: %w", err)
	}
	fmt.Fprintf(w, "settled: received %v tokens (deposit %v + redistribution %+v)\n",
		FromWei(after-before), FromWei(dep), FromWei(after-before-dep))
	return nil
}

// commitSalt is member i's commit-reveal salt for contrib: a hash of the
// member's signature over the contract parameters and the contribution.
// ed25519 signs deterministically, so every run of the member derives the
// salt it committed with, and only the key's holder can.
func (s *Settlement) commitSalt(i int, contrib Contribution) (string, error) {
	params, err := json.Marshal(s.Params)
	if err != nil {
		return "", err
	}
	msg := fmt.Appendf([]byte("tradefl commit salt\x00"), "%s\x00%.17g|%.17g", params, contrib.D, contrib.F)
	sum := sha256.Sum256(s.Accounts[i].Sign(msg))
	return hex.EncodeToString(sum[:16]), nil
}
