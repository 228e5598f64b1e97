package chain

import (
	"errors"
	"fmt"

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
