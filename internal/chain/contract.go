package chain

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Contract errors callers can match with errors.Is.
var (
	ErrNotRegistered      = errors.New("contract: organization not registered")
	ErrAlreadyRegistered  = errors.New("contract: organization already registered")
	ErrAlreadySubmitted   = errors.New("contract: contribution already submitted")
	ErrMissingSubmissions = errors.New("contract: not all organizations have submitted")
	ErrNotCalculated      = errors.New("contract: payoffs not calculated yet")
	ErrAlreadySettled     = errors.New("contract: payoffs already transferred")
	ErrInsufficientBond   = errors.New("contract: deposit cannot cover redistribution")
	ErrUnknownFunction    = errors.New("contract: unknown function")
	ErrBadArgs            = errors.New("contract: bad arguments")
)

// IsAlready reports whether err rejects a lifecycle phase the caller has
// already completed (ErrAlreadyRegistered, ErrAlreadyCommitted,
// ErrAlreadySubmitted, ErrAlreadySettled), so a retried or restarted
// member can move on. Admission never runs the contract: a contract
// rejection reaches the member only as its sealed receipt's text, where
// errors.Is cannot find the sentinel. So the check is the word the
// sentinels' messages share.
func IsAlready(err error) bool {
	return err != nil && strings.Contains(err.Error(), "already")
}

// ContractParams are the immutable trading parameters baked into the
// contract at deployment: everything payoffCalculate needs to evaluate
// Eq. (9) for the reported contribution profiles.
type ContractParams struct {
	// Members lists the participating organizations' addresses; Rho and
	// DataBits are indexed consistently with it.
	Members []Address `json:"members"`
	// Rho is the symmetric competition matrix ρ.
	Rho [][]float64 `json:"rho"`
	// DataBits is s_i per member.
	DataBits []float64 `json:"dataBits"`
	// Gamma is the incentive intensity γ.
	Gamma float64 `json:"gamma"`
	// Lambda is λ of the contribution index.
	Lambda float64 `json:"lambda"`
}

// Validate checks dimensional consistency and ρ symmetry.
func (p *ContractParams) Validate() error {
	n := len(p.Members)
	if n == 0 {
		return fmt.Errorf("%w: no members", ErrBadArgs)
	}
	if len(p.Rho) != n || len(p.DataBits) != n {
		return fmt.Errorf("%w: dimension mismatch", ErrBadArgs)
	}
	seen := make(map[Address]bool, n)
	for i, m := range p.Members {
		if m == ZeroAddress || seen[m] {
			return fmt.Errorf("%w: duplicate or empty member %d", ErrBadArgs, i)
		}
		seen[m] = true
		if len(p.Rho[i]) != n {
			return fmt.Errorf("%w: rho row %d", ErrBadArgs, i)
		}
		if p.DataBits[i] <= 0 {
			return fmt.Errorf("%w: dataBits[%d]", ErrBadArgs, i)
		}
		for j := range p.Rho[i] {
			if p.Rho[i][j] != p.Rho[j][i] || p.Rho[i][j] < 0 {
				return fmt.Errorf("%w: rho not symmetric nonnegative at (%d,%d)", ErrBadArgs, i, j)
			}
		}
	}
	if p.Gamma < 0 || p.Lambda < 0 {
		return fmt.Errorf("%w: negative gamma or lambda", ErrBadArgs)
	}
	return nil
}

// Contribution is the {d_i*, f_i*} profile an organization reports through
// contributionSubmit (truthfulness is assumed per the paper's footnote 6;
// verification via TEE is out of scope).
type Contribution struct {
	D float64 `json:"d"`
	F float64 `json:"f"`
}

// maxContributionF caps a reported CPU frequency at game.MaxMagnitude. An
// uncapped F can push a payoff out of the wei range, where Go's float→int
// conversion differs between architectures — and receipt texts are hashed.
const maxContributionF = 1e15

// inRange reports whether the contract accepts c; a NaN fails every test.
func (c Contribution) inRange() bool {
	return c.D >= 0 && c.D <= 1 && c.F >= 0 && c.F <= maxContributionF
}

// memberState is the contract's per-organization record.
type memberState struct {
	Registered   bool         `json:"registered"`
	Deposit      Wei          `json:"deposit"`
	Submitted    bool         `json:"submitted"`
	Contribution Contribution `json:"contribution"`
	// Commitment is the salted hash bound by contributionCommit ("" in the
	// direct-submit mode).
	Commitment string `json:"commitment,omitempty"`
	Payoff     Wei    `json:"payoff"` // R_i in wei, set by payoffCalculate
	Recorded   bool   `json:"recorded"`
}

// ProfileEntry is a profileRecord log entry, stored on-chain for
// arbitration (Sec. III-F).
type ProfileEntry struct {
	Org          Address      `json:"org"`
	Contribution Contribution `json:"contribution"`
	Payoff       Wei          `json:"payoff"`
	Block        uint64       `json:"block"`
}

// Contract is the TradeFL settlement contract state. It advances through
// the three steps of Fig. 3: register/deposit → submit → calculate +
// transfer (+ record).
type Contract struct {
	Params     ContractParams          `json:"params"`
	MemberData map[Address]memberState `json:"memberData"`
	Calculated bool                    `json:"calculated"`
	Settled    bool                    `json:"settled"`
	Records    []ProfileEntry          `json:"records"`
}

// NewContract deploys a contract with the given parameters.
func NewContract(params ContractParams) (*Contract, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Contract{
		Params:     params,
		MemberData: make(map[Address]memberState, len(params.Members)),
	}, nil
}

// memberIndex returns the parameter index of addr, or -1.
func (c *Contract) memberIndex(addr Address) int {
	for i, m := range c.Params.Members {
		if m == addr {
			return i
		}
	}
	return -1
}

// Apply executes one contract call inside the state transition. balance
// mutations happen through the returned delta on the caller's account
// (positive = credited back to the caller).
func (c *Contract) Apply(from Address, fn Function, args json.RawMessage, value Wei, height uint64) (refund Wei, err error) {
	switch fn {
	case FnDepositSubmit:
		return 0, c.depositSubmit(from, value)
	case FnContributionSubmit:
		return 0, c.contributionSubmit(from, args, value)
	case FnContributionCommit:
		return 0, c.contributionCommit(from, args, value)
	case FnContributionReveal:
		return 0, c.contributionReveal(from, args, value)
	case FnPayoffCalculate:
		return 0, c.payoffCalculate(from, value)
	case FnPayoffTransfer:
		return c.payoffTransfer(from, value)
	case FnProfileRecord:
		return 0, c.profileRecord(from, value, height)
	default:
		return 0, fmt.Errorf("%w: %q", ErrUnknownFunction, fn)
	}
}

// depositSubmit registers the caller and escrows its bond (Table I:
// "Issue bonds to the contract").
func (c *Contract) depositSubmit(from Address, value Wei) error {
	if c.memberIndex(from) < 0 {
		return fmt.Errorf("%w: %s", ErrNotRegistered, from)
	}
	ms := c.MemberData[from]
	if ms.Registered {
		return fmt.Errorf("%w: %s", ErrAlreadyRegistered, from)
	}
	if value <= 0 {
		return fmt.Errorf("%w: deposit must be positive", ErrBadArgs)
	}
	ms.Registered = true
	ms.Deposit = value
	c.MemberData[from] = ms
	return nil
}

// contributionSubmit stores the caller's reported {d*, f*} (Table I:
// "Submit contribution").
func (c *Contract) contributionSubmit(from Address, args json.RawMessage, value Wei) error {
	if value != 0 {
		return fmt.Errorf("%w: contributionSubmit is not payable", ErrBadArgs)
	}
	ms, ok := c.MemberData[from]
	if !ok || !ms.Registered {
		return fmt.Errorf("%w: %s", ErrNotRegistered, from)
	}
	if ms.Submitted {
		return fmt.Errorf("%w: %s", ErrAlreadySubmitted, from)
	}
	if ms.Commitment != "" {
		return fmt.Errorf("%w: %s", ErrModeMixed, from)
	}
	var contrib Contribution
	if err := json.Unmarshal(args, &contrib); err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	if !contrib.inRange() {
		return fmt.Errorf("%w: contribution out of range", ErrBadArgs)
	}
	ms.Submitted = true
	ms.Contribution = contrib
	c.MemberData[from] = ms
	return nil
}

// payoffCalculate evaluates R_i = Σ_j γ·ρ_ij·(x_i − x_j) for every member
// from the recorded contributions (Table I: "Calculate the payoff"). Any
// member may trigger it once all have submitted.
func (c *Contract) payoffCalculate(from Address, value Wei) error {
	if value != 0 {
		return fmt.Errorf("%w: payoffCalculate is not payable", ErrBadArgs)
	}
	if c.memberIndex(from) < 0 {
		return fmt.Errorf("%w: %s", ErrNotRegistered, from)
	}
	if c.Calculated {
		return nil // idempotent
	}
	n := len(c.Params.Members)
	xs := make([]float64, n)
	for i, m := range c.Params.Members {
		ms, ok := c.MemberData[m]
		if !ok || !ms.Submitted {
			return fmt.Errorf("%w: waiting for %s", ErrMissingSubmissions, m)
		}
		xs[i] = ms.Contribution.D*c.Params.DataBits[i] + c.Params.Lambda*ms.Contribution.F
	}
	for i, m := range c.Params.Members {
		var r float64
		for j := 0; j < n; j++ {
			r += c.Params.Gamma * c.Params.Rho[i][j] * (xs[i] - xs[j])
		}
		// The deployed γ, ρ and s are not capped: r can leave ToWei's range.
		if !(math.Abs(r)*WeiPerToken < 1<<63) {
			return fmt.Errorf("%w: payoff of %s, %g tokens, is outside the wei range", ErrBadArgs, m, r)
		}
		ms := c.MemberData[m]
		ms.Payoff = ToWei(r)
		if ms.Deposit+ms.Payoff < 0 {
			return fmt.Errorf("%w: %s owes %v beyond its bond", ErrInsufficientBond, m, FromWei(-ms.Payoff))
		}
		c.MemberData[m] = ms
	}
	// Rounding can leave the transfer set a few wei off balance; charge
	// the residue to the first member so Σ payoffs is exactly zero
	// (budget balance, Definition 5). The residual gauge reports the
	// SIGNED value: positive when the transfers under-credit (member 0
	// pays the difference), negative when they over-credit (member 0 is
	// credited the difference).
	var sum Wei
	for _, m := range c.Params.Members {
		sum += c.MemberData[m].Payoff
	}
	mResidual.Set(float64(sum))
	if sum != 0 {
		first := c.Params.Members[0]
		ms := c.MemberData[first]
		ms.Payoff -= sum
		// The per-member bond check above ran on the pre-residual payoff;
		// a positive residual debits member 0 further and must not push it
		// beyond its bond (a negative residual only credits it).
		if ms.Deposit+ms.Payoff < 0 {
			return fmt.Errorf("%w: %s owes %v beyond its bond after the rounding residual", ErrInsufficientBond, first, FromWei(-ms.Payoff))
		}
		c.MemberData[first] = ms
	}
	c.Calculated = true
	c.auditSettlement()
	return nil
}

// payoffTransfer settles the caller: it returns deposit + R_i to the
// caller's balance (Table I: "Perform payoff redistribution"). Each member
// settles exactly once.
func (c *Contract) payoffTransfer(from Address, value Wei) (Wei, error) {
	if value != 0 {
		return 0, fmt.Errorf("%w: payoffTransfer is not payable", ErrBadArgs)
	}
	ms, ok := c.MemberData[from]
	if !ok || !ms.Registered {
		return 0, fmt.Errorf("%w: %s", ErrNotRegistered, from)
	}
	if !c.Calculated {
		return 0, ErrNotCalculated
	}
	if ms.Deposit == 0 && ms.Payoff == 0 {
		return 0, fmt.Errorf("%w: %s", ErrAlreadySettled, from)
	}
	refund := ms.Deposit + ms.Payoff
	ms.Deposit = 0
	ms.Payoff = 0
	c.MemberData[from] = ms
	c.markSettledIfDone()
	return refund, nil
}

func (c *Contract) markSettledIfDone() {
	for _, m := range c.Params.Members {
		ms := c.MemberData[m]
		if !ms.Registered || ms.Deposit != 0 || ms.Payoff != 0 {
			return
		}
	}
	c.Settled = true
}

// profileRecord appends the caller's contribution and payoff to the
// immutable record log (Table I: "Record the contribution profile").
func (c *Contract) profileRecord(from Address, value Wei, height uint64) error {
	if value != 0 {
		return fmt.Errorf("%w: profileRecord is not payable", ErrBadArgs)
	}
	if !c.Calculated {
		return ErrNotCalculated
	}
	ms, ok := c.MemberData[from]
	if !ok || !ms.Submitted {
		return fmt.Errorf("%w: %s", ErrNotRegistered, from)
	}
	if ms.Recorded {
		return nil // idempotent
	}
	idx := c.memberIndex(from)
	// Recompute R_i for the record even after settlement zeroed Payoff.
	n := len(c.Params.Members)
	xs := make([]float64, n)
	for i, m := range c.Params.Members {
		cm := c.MemberData[m]
		xs[i] = cm.Contribution.D*c.Params.DataBits[i] + c.Params.Lambda*cm.Contribution.F
	}
	var r float64
	for j := 0; j < n; j++ {
		r += c.Params.Gamma * c.Params.Rho[idx][j] * (xs[idx] - xs[j])
	}
	c.Records = append(c.Records, ProfileEntry{
		Org:          from,
		Contribution: ms.Contribution,
		Payoff:       ToWei(r),
		Block:        height,
	})
	ms.Recorded = true
	c.MemberData[from] = ms
	return nil
}

// Payoffs returns the calculated redistribution per member (post
// payoffCalculate, pre transfer), sorted by member order.
func (c *Contract) Payoffs() ([]Wei, error) {
	if !c.Calculated {
		return nil, ErrNotCalculated
	}
	out := make([]Wei, len(c.Params.Members))
	for i, m := range c.Params.Members {
		out[i] = c.MemberData[m].Payoff
	}
	return out, nil
}

// SortedRecords returns the record log ordered by (block, org).
func (c *Contract) SortedRecords() []ProfileEntry {
	out := make([]ProfileEntry, len(c.Records))
	copy(out, c.Records)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Block != out[j].Block {
			return out[i].Block < out[j].Block
		}
		return out[i].Org < out[j].Org
	})
	return out
}

// MinDeposit returns a bond that always covers member i's worst-case
// negative redistribution: γ·Σ_j ρ_ij·(x_j^max − x_i^min) with
// x_i^min = 0 and x_j^max = s_j + λ·fMax.
func MinDeposit(params ContractParams, i int, fMax float64) Wei {
	var worst float64
	for j := range params.Members {
		xjMax := params.DataBits[j] + params.Lambda*fMax
		worst += params.Gamma * params.Rho[i][j] * xjMax
	}
	return ToWei(worst) + 1
}
