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

// payoffCalculate stores every member's R_i (Table I: "Calculate the
// payoff"). Any member may trigger it once all have submitted.
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
	for _, m := range c.Params.Members {
		if ms, ok := c.MemberData[m]; !ok || !ms.Submitted {
			return fmt.Errorf("%w: waiting for %s", ErrMissingSubmissions, m)
		}
	}
	xs := c.indices()
	for i, m := range c.Params.Members {
		r, err := c.Params.payoff(i, xs)
		if err != nil {
			return err
		}
		ms := c.MemberData[m]
		ms.Payoff = r
		if ms.Deposit+ms.Payoff < 0 {
			return fmt.Errorf("%w: %s owes %v beyond its bond", ErrInsufficientBond, m, FromWei(-ms.Payoff))
		}
		c.MemberData[m] = ms
	}
	c.Calculated = true
	c.auditSettlement()
	return nil
}

// indices returns every member's contribution index
// x_i = d_i·s_i + λ·f_i from its recorded contribution. The conversions
// round each product on its own, so no architecture fuses them into a
// multiply-add and every node computes the same bits.
func (c *Contract) indices() []float64 {
	xs := make([]float64, len(c.Params.Members))
	for i, m := range c.Params.Members {
		cm := c.MemberData[m].Contribution
		xs[i] = float64(cm.D*c.Params.DataBits[i]) + float64(c.Params.Lambda*cm.F)
	}
	return xs
}

// payoff returns member i's R_i = Σ_j t_ij of Eq. (9) at indices xs, in
// wei. Each pairwise transfer t_ij = wei(γ·ρ_ij·(x_i − x_j)) is rounded
// once: ρ is symmetric to the bit, IEEE subtraction and negation are exact
// and ToWei is odd, so t_ji = −t_ij and the payoffs of one xs sum to
// exactly zero (budget balance, Definition 5). The deployed γ, ρ and s are
// not capped, so the row's gross Σ_j |t_ij| is checked against the wei
// range before any float→int conversion; half the int64 range leaves room
// for the float sum's own rounding.
func (p *ContractParams) payoff(i int, xs []float64) (Wei, error) {
	var gross float64
	for j := range xs {
		gross += float64(math.Abs(p.Gamma*p.Rho[i][j]*(xs[i]-xs[j])) * WeiPerToken)
	}
	if !(gross < 1<<62) {
		return 0, fmt.Errorf("%w: payoff of %s, %g tokens gross, is outside the wei range", ErrBadArgs, p.Members[i], gross/WeiPerToken)
	}
	var r Wei
	for j := range xs {
		r += ToWei(p.Gamma * p.Rho[i][j] * (xs[i] - xs[j]))
	}
	return r, nil
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
	// Recompute R_i for the record even after settlement zeroed Payoff;
	// payoffCalculate already checked its range.
	r, _ := c.Params.payoff(c.memberIndex(from), c.indices())
	c.Records = append(c.Records, ProfileEntry{
		Org:          from,
		Contribution: ms.Contribution,
		Payoff:       r,
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

// MinDeposit returns the bond that covers member i's worst in-range
// report: minus its payoff at x_i = 0 against x_j = s_j + λ·fMax, which no
// report with f ≤ fMax undercuts, since every step of payoff is monotone.
// depositSubmit takes only a positive bond, so it is at least 1 wei; so is
// a worst case outside the wei range, which payoffCalculate refuses.
func MinDeposit(params ContractParams, i int, fMax float64) Wei {
	xs := make([]float64, len(params.Members))
	for j := range xs {
		if j != i {
			xs[j] = params.DataBits[j] + float64(params.Lambda*fMax)
		}
	}
	r, _ := params.payoff(i, xs)
	return max(-r, 1)
}
