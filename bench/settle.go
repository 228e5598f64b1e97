package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tradefl/internal/chain"
	"tradefl/internal/dbr"
	"tradefl/internal/game"
	"tradefl/internal/randx"
)

const (
	settleOrgs   = 32
	settleStages = 4                    // deposits / contributions / calculate / transfers+records
	settleTxs    = 4*settleOrgs + 1     // 129
	readPeriod   = 5 * time.Millisecond // 200 reads/s
)

// settlePlan is the pre-signed Fig. 3 lifecycle of one solved N=32 game.
// It depends only on the genesis (keys, allocation) and the equilibrium
// profile, so the same plan settles on every fresh chain of a run.
type settlePlan struct {
	cfg       *game.Config
	authority *chain.Account
	params    chain.ContractParams
	alloc     chain.GenesisAlloc
	members   []chain.Address
	stages    [settleStages][]chain.Transaction
	hashes    []string // tx hashes of stage 0, for receipt reads
	signTime  time.Duration

	// refRoot is the final state root of a direct in-process settlement of
	// this plan; every measured settlement must reach the same root.
	refRoot string
}

// buildSettlePlan solves the seeded game, derives the accounts and signs
// the 129 transactions — the key-gen and pre-sign part of set-up.
func buildSettlePlan(seed int64) (*settlePlan, error) {
	cfg, err := game.DefaultConfig(game.GenOptions{N: settleOrgs, Seed: mixSeed(seed, 3)})
	if err != nil {
		return nil, err
	}
	solved, err := dbr.Solve(cfg, nil, dbr.Options{})
	if err != nil {
		return nil, fmt.Errorf("solve settlement game: %w", err)
	}
	profile := solved.Profile

	src := randx.New(mixSeed(seed, 4))
	p := &settlePlan{cfg: cfg, alloc: chain.GenesisAlloc{}}
	if p.authority, err = chain.NewAccount(src); err != nil {
		return nil, err
	}
	accounts := make([]*chain.Account, settleOrgs)
	bits := make([]float64, settleOrgs)
	fMax := 0.0
	for i, o := range cfg.Orgs {
		if accounts[i], err = chain.NewAccount(src); err != nil {
			return nil, err
		}
		p.members = append(p.members, accounts[i].Address())
		bits[i] = cfg.DataCredit(i)
		fMax = max(fMax, o.CPULevels[len(o.CPULevels)-1])
	}
	p.params = chain.ContractParams{Members: p.members, Rho: cfg.Rho, DataBits: bits, Gamma: cfg.Gamma, Lambda: cfg.Lambda}
	deposits := make([]chain.Wei, settleOrgs)
	for i := range accounts {
		deposits[i] = chain.MinDeposit(p.params, i, fMax)
		p.alloc[p.members[i]] = 2 * deposits[i]
	}

	nonces := make([]uint64, settleOrgs)
	signStart := time.Now()
	add := func(stage, i int, fn chain.Function, args any, value chain.Wei) error {
		tx, err := chain.NewTransaction(accounts[i], nonces[i], fn, args, value)
		if err != nil {
			return err
		}
		nonces[i]++
		p.stages[stage] = append(p.stages[stage], *tx)
		return nil
	}
	for i := range accounts {
		err = errors.Join(err,
			add(0, i, chain.FnDepositSubmit, nil, deposits[i]),
			add(1, i, chain.FnContributionSubmit, chain.Contribution{D: profile[i].D, F: profile[i].F}, 0))
	}
	err = errors.Join(err, add(2, 0, chain.FnPayoffCalculate, nil, 0))
	for i := range accounts {
		err = errors.Join(err,
			add(3, i, chain.FnPayoffTransfer, nil, 0),
			add(3, i, chain.FnProfileRecord, nil, 0))
	}
	if err != nil {
		return nil, fmt.Errorf("sign settlement plan: %w", err)
	}
	p.signTime = time.Since(signStart)
	for i := range p.stages[0] {
		h, err := p.stages[0][i].Hash()
		if err != nil {
			return nil, err
		}
		p.hashes = append(p.hashes, h)
	}

	ref, err := chain.NewBlockchain(p.authority, p.params, p.alloc)
	if err != nil {
		return nil, err
	}
	if p.refRoot, err = settleOn(directLedger{ref}, p, nil, -1, 0); err != nil {
		return nil, fmt.Errorf("reference settlement: %w", err)
	}
	return p, nil
}

// ledger is the part of the chain a settlement drives: the RPC client and
// the in-process Blockchain both provide it, so the measured RPC run and
// the direct replay execute the same steps.
type ledger interface {
	SubmitTxBatch(txs []chain.Transaction) ([]chain.SubmitResult, error)
	SealBlock() (*chain.Block, error)
	VerifyChain() error
	payoffs() ([]chain.Wei, error)
	stateRoot() (string, error)
}

type rpcLedger struct{ *chain.Client }

func (l rpcLedger) payoffs() ([]chain.Wei, error) { return l.Payoffs() }
func (l rpcLedger) stateRoot() (string, error)    { return l.StateRoot() }

type directLedger struct{ *chain.Blockchain }

func (l directLedger) payoffs() (out []chain.Wei, err error) {
	err = l.ContractView(func(c *chain.Contract) error {
		out, err = c.Payoffs()
		return err
	})
	return out, err
}
func (l directLedger) stateRoot() (string, error) { return l.StateRoot(), nil }

// settleOn runs the four stages on an open chain and checks the outputs:
// every submission accepted, every receipt OK, transfers summing to exactly
// 0 wei, the chain re-verifying clean. It returns the final state root.
// rec (optional) records submit/seal/verify spans under parent.
func settleOn(l ledger, p *settlePlan, rec *recorder, parent, op int) (string, error) {
	timed := func(name string, fn func() error) error {
		if rec == nil {
			return fn()
		}
		id := rec.begin(name, parent, op)
		defer rec.end(id)
		return fn()
	}
	for s, txs := range p.stages {
		err := timed("chain.submit", func() error {
			results, err := l.SubmitTxBatch(txs)
			if err != nil {
				return err
			}
			for i, r := range results {
				if !r.OK || r.Known {
					return fmt.Errorf("tx %d rejected: %+v", i, r)
				}
			}
			return nil
		})
		if err != nil {
			return "", fmt.Errorf("stage %d submit: %w", s, err)
		}
		err = timed("chain.seal", func() error {
			blk, err := l.SealBlock()
			if err != nil {
				return err
			}
			if len(blk.Receipts) != len(txs) {
				return fmt.Errorf("%d receipts for %d txs", len(blk.Receipts), len(txs))
			}
			for _, r := range blk.Receipts {
				if !r.OK {
					return fmt.Errorf("receipt %s failed: %s", r.TxHash, r.Error)
				}
			}
			return nil
		})
		if err != nil {
			return "", fmt.Errorf("stage %d seal: %w", s, err)
		}
	}
	payoffs, err := l.payoffs()
	if err != nil {
		return "", fmt.Errorf("payoffs: %w", err)
	}
	var sum chain.Wei
	for _, w := range payoffs {
		sum += w
	}
	if len(payoffs) != settleOrgs || sum != 0 {
		return "", fmt.Errorf("transfers of %d members sum to %d wei, want exactly 0", len(payoffs), sum)
	}
	if err := timed("chain.verify", l.VerifyChain); err != nil {
		return "", fmt.Errorf("verify chain: %w", err)
	}
	return l.stateRoot()
}

// liveChain is one fresh WAL-backed chain behind its own JSON-RPC server.
type liveChain struct {
	bc  *chain.Blockchain
	srv *chain.Server
	dir string
	// served reports Serve's result after close.
	served chan error
}

func openLive(p *settlePlan, dir string) (*liveChain, error) {
	bc, err := chain.OpenDurableOpts(dir, p.authority, p.params, p.alloc, chain.Options{})
	if err != nil {
		return nil, err
	}
	srv, err := chain.NewServer(bc, "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, bc.CloseDurable())
	}
	lc := &liveChain{bc: bc, srv: srv, dir: dir, served: make(chan error, 1)}
	go func() { lc.served <- srv.Serve() }()
	return lc, nil
}

// close stops the RPC server, closes the WAL and removes the directory.
func (lc *liveChain) close() error {
	return errors.Join(lc.srv.Close(), <-lc.served, lc.bc.CloseDurable(), os.RemoveAll(lc.dir))
}

// rpcClient builds a chain client on the given connection pool.
func rpcClient(addr string, tr *http.Transport) *chain.Client {
	return chain.NewClientOpts(addr, chain.ClientOptions{Transport: tr})
}

// readLive issues paced reads against one live chain until stop is
// closed: Balance, Nonce, Receipt and Status in rotation. A receipt asked
// for before its block sealed is answered "not found" by the chain; that is
// a served read, while a transport error is a failed one.
func readLive(cl *chain.Client, p *settlePlan, stop <-chan struct{}) (samples []pacedSample, failed int) {
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	sleep := func(d time.Duration) {
		select {
		case <-stop:
		case <-time.After(d):
		}
	}
	samples = runPaced(readPeriod, time.Now, sleep, stopped, func(i int) {
		var err error
		who := p.members[i%settleOrgs]
		switch i % 4 {
		case 0:
			_, err = cl.Balance(who)
		case 1:
			_, err = cl.Nonce(who)
		case 2:
			_, err = cl.Receipt(p.hashes[i%settleOrgs])
		case 3:
			_, err = cl.Status()
		}
		var served *chain.RPCError
		if err != nil && !errors.As(err, &served) {
			failed++
		}
	})
	return samples, failed
}

// settler is the closed-loop client of settle_rpc: one settlement after
// another, each on a fresh durable chain reached over JSON-RPC, with the
// paced reader attached while the chain is live.
type settler struct {
	plan   *settlePlan
	walDir string
	// Each side keeps its own connection pool: every settlement talks to
	// a new port, and the default transport would pile up idle connections
	// to the old ones.
	settlerTr, readerTr *http.Transport

	reads       []pacedSample // of measured settlements
	readsFailed int
}

func newSettler(p *settlePlan, walDir string) *settler {
	return &settler{plan: p, walDir: walDir, settlerTr: &http.Transport{}, readerTr: &http.Transport{}}
}

func (s *settler) close() {
	s.settlerTr.CloseIdleConnections()
	s.readerTr.CloseIdleConnections()
}

// once settles the plan on fresh chain k over JSON-RPC, with the paced
// reader beside it when reads is non-nil (its samples are appended there).
// The latency is open → verified; closing and removing the chain follow.
func (s *settler) once(k int, reads *[]pacedSample, readsFailed *int) (time.Duration, error) {
	p := s.plan
	start := time.Now()
	lc, err := openLive(p, filepath.Join(s.walDir, fmt.Sprintf("chain-%06d", k)))
	if err != nil {
		return 0, fmt.Errorf("open chain: %w", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if reads != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples, failed := readLive(rpcClient(lc.srv.Addr(), s.readerTr), p, stop)
			*reads = append(*reads, samples...)
			*readsFailed += failed
		}()
	}

	root, err := settleOn(rpcLedger{rpcClient(lc.srv.Addr(), s.settlerTr)}, p, nil, -1, k)
	latency := time.Since(start)

	close(stop)
	wg.Wait()
	s.close()
	err = errors.Join(err, lc.close())
	if err == nil && root != p.refRoot {
		err = fmt.Errorf("state root %s, reference settlement reached %s", root, p.refRoot)
	}
	return latency, err
}

// settle is the loop's opFunc. Reads beside warm-up settlements are
// dropped.
func (s *settler) settle(_, k int, measured bool) (time.Duration, int, error) {
	reads, failed := &s.reads, &s.readsFailed
	if !measured {
		reads, failed = new([]pacedSample), new(int)
	}
	latency, err := s.once(k, reads, failed)
	return latency, 1, err
}
