package chain

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Chain errors callers can match with errors.Is.
var (
	ErrBadNonce            = errors.New("chain: bad nonce")
	ErrInsufficientBalance = errors.New("chain: insufficient balance")
	ErrBrokenLink          = errors.New("chain: broken block link")
	ErrBadSeal             = errors.New("chain: invalid authority seal")
	// ErrTxAlreadyKnown rejects a resubmission of a transaction that is
	// already pending or sealed. It makes SubmitTx idempotent: a client
	// whose first submission's response was lost can retry blindly and
	// treat this error as acceptance (chain.IsAlreadyKnown).
	ErrTxAlreadyKnown = errors.New("chain: transaction already known")
	// ErrStaleTerm rejects a sealed block whose fencing term is below the
	// chain's current term: after a standby promoted itself, blocks from
	// the deposed (possibly revived) primary carry the old term and must
	// not be able to fork the chain.
	ErrStaleTerm = errors.New("chain: stale fencing term")
)

// Receipt reports the outcome of one transaction inside a block.
type Receipt struct {
	TxHash string `json:"txHash"`
	Height uint64 `json:"height"`
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
}

// Block is a PoA-sealed batch of transactions.
type Block struct {
	Height    uint64        `json:"height"`
	PrevHash  string        `json:"prevHash"`
	StateRoot string        `json:"stateRoot"`
	TxRoot    string        `json:"txRoot"` // Merkle root of the tx hashes
	Txs       []Transaction `json:"txs"`
	Receipts  []Receipt     `json:"receipts"`
	Sealer    []byte        `json:"sealer"` // authority public key
	// Term is the fencing term of the sealing validator; it may only grow
	// along the chain, so a deposed primary (term n) cannot extend a chain
	// a promoted standby (term n+1) already sealed on. omitempty keeps
	// term-0 headers (and their hashes) byte-identical to pre-failover
	// history.
	Term uint64 `json:"term,omitempty"`
	Seal []byte `json:"seal"` // signature over the header hash

	// admitted is the audit witness: the tx hashes admission computed right
	// after Transaction.Verify succeeded (the pool's poolHashes, handed over
	// by sealLocked). It is process-local evidence, never serialized — a
	// block that crossed a file or a wire carries none and is audited in
	// full (DESIGN.md §15).
	admitted []string
}

// HeaderHash returns the digest the seal covers: the hash of the block's
// JSON document without its seal.
func (b *Block) HeaderHash() (string, error) {
	raw, err := appendBlock(make([]byte, 0, b.sizeHint()), b, false)
	if err != nil {
		return "", fmt.Errorf("chain: marshal header: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// Blockchain is a single-authority (PoA) chain hosting one TradeFL
// contract. It is safe for concurrent use.
//
// Locking (acquire strictly in this order, any prefix/suffix skipping ok):
//
//	sealSeq → poolMu → execMu → mu
//
// sealSeq serializes the seal path (SealBlock, ApplySealedBlock, Promote)
// without blocking admission or reads: a seal holds it across
// admission-handoff → execute → WAL-enqueue → install, but releases it
// before the fsync wait, so block H+1 executes while block H commits.
// poolMu guards the mempool and dedup indexes; execMu guards the ledger
// (accounts and contract): block execution — the only writer, and always
// under sealSeq — holds it exclusively, Balance, Nonce, ContractView and
// admission's nonce lookup hold it shared, and the sealSeq holder itself
// reads the ledger without it; mu guards the sealed chain and the fencing
// term.
type Blockchain struct {
	sealSeq sync.Mutex

	// Mempool + dedup indexes, under poolMu: pool/poolHashes hold pending
	// txs (and their ids) in admission order, poolHash dedups them O(1),
	// sealing holds the ids of the block currently being sealed (still
	// "known" for dedup, no longer pending for seal), nextNonce is the
	// persistent pending-nonce frontier per sender (entries pruned back to
	// the state nonce once a sender has nothing pending), sealedRcpt maps
	// every sealed tx id to its receipt inside blocks: it lives as long as
	// the blocks it points into.
	poolMu     sync.RWMutex
	pool       []Transaction
	poolHashes []string
	poolHash   map[string]struct{}
	sealing    map[string]struct{}
	nextNonce  map[Address]uint64
	sealedRcpt map[string]*Receipt

	// execMu guards led: exclusive while a block executes, shared for
	// readers.
	execMu sync.RWMutex
	led    *ledger

	// mu guards the sealed chain and the fencing term.
	mu     sync.RWMutex
	blocks []*Block
	term   uint64

	// sealed and sealedHash are the block seal() signed last and the header
	// hash it signed: the next block's PrevHash without re-encoding the
	// whole tip. Written and read under sealSeq only.
	sealed     *Block
	sealedHash string

	authority *Account

	// genesisWei is the total wei minted at genesis — the conserved sum the
	// ledger audit checks against at every sealed height.
	genesisWei Wei

	// wal, when attached, makes every accepted tx and sealed block durable
	// before it is acknowledged. After a WAL write error the chain refuses
	// all further durable operations (the error is sticky); callers must
	// treat that as fatal.
	wal *WAL
}

// GenesisAlloc funds accounts at genesis.
type GenesisAlloc map[Address]Wei

// NewBlockchain creates a chain with the deployed contract and the genesis
// allocation, sealed by authority.
func NewBlockchain(authority *Account, params ContractParams, alloc GenesisAlloc) (*Blockchain, error) {
	contract, err := NewContract(params)
	if err != nil {
		return nil, err
	}
	led := newLedger(contract)
	var genesisWei Wei
	for addr, amt := range alloc {
		if amt < 0 {
			return nil, fmt.Errorf("chain: negative genesis allocation for %s", addr)
		}
		led.Balances[addr] = amt
		genesisWei += amt
	}
	bc := &Blockchain{
		authority:  authority,
		led:        led,
		genesisWei: genesisWei,
		poolHash:   map[string]struct{}{},
		sealing:    map[string]struct{}{},
		nextNonce:  map[Address]uint64{},
		sealedRcpt: map[string]*Receipt{},
	}
	root, err := led.root()
	if err != nil {
		return nil, err
	}
	genesis := &Block{Height: 0, PrevHash: "", StateRoot: root, TxRoot: MerkleRoot(nil), Sealer: authority.PublicKey()}
	if err := bc.seal(genesis); err != nil {
		return nil, err
	}
	bc.blocks = []*Block{genesis}
	return bc, nil
}

func (bc *Blockchain) seal(b *Block) error {
	h, err := b.HeaderHash()
	if err != nil {
		return err
	}
	b.Seal = bc.authority.Sign([]byte(h))
	bc.sealed, bc.sealedHash = b, h
	return nil
}

// PendingCount returns the number of accepted-but-unsealed transactions:
// the mempool plus the block currently in the seal pipeline.
func (bc *Blockchain) PendingCount() int {
	bc.poolMu.RLock()
	defer bc.poolMu.RUnlock()
	return len(bc.pool) + len(bc.sealing)
}

// SealBlock applies every pending transaction (in submission order) and
// appends a sealed block. Failed transactions are included with an error
// receipt; their state effects are rolled back individually. With a WAL
// attached the call returns only after the block record is fsynced — but
// the fsync wait happens outside sealSeq, so the next block's admission and
// execution overlap this block's group commit.
func (bc *Blockchain) SealBlock() (*Block, error) {
	bc.sealSeq.Lock()
	b, ticket, err := bc.sealLocked(-1)
	bc.sealSeq.Unlock()
	if err != nil {
		return nil, err
	}
	if err := ticket.wait(); err != nil {
		return nil, fmt.Errorf("chain: block not durable: %w", err)
	}
	return b, nil
}

// sealLocked runs the three seal stages on the first `take` pool txs
// (take < 0 = the whole pool). Caller holds sealSeq; the returned WAL
// ticket is waited outside all locks.
//
//	stage 1  admission handoff   (poolMu)   txs move pool → sealing
//	stage 2  execute + state root (execMu)  pool order, exact rollback
//	stage 3  WAL enqueue + install (poolMu→mu)
//
// Durability contract: the block record is enqueued before install, in
// sealSeq order, so the log order matches the chain order; nothing is
// acknowledged to the SealBlock caller before the record is fsynced.
func (bc *Blockchain) sealLocked(take int) (*Block, *walTicket, error) {
	if bc.wal != nil {
		if err := bc.wal.Err(); err != nil {
			return nil, nil, fmt.Errorf("chain: wal unavailable: %w", err)
		}
	}
	sealStart := time.Now()
	defer mSealSec.ObserveSince(sealStart)

	// Stage 1: move the batch out of the mempool. Admission of the next
	// block's txs proceeds as soon as poolMu drops.
	bc.poolMu.Lock()
	n := len(bc.pool)
	if take >= 0 && take < n {
		n = take
	}
	var txs []Transaction
	var hashes []string
	if n > 0 {
		txs = bc.pool[:n:n]
		hashes = bc.poolHashes[:n:n]
		bc.pool = bc.pool[n:]
		bc.poolHashes = bc.poolHashes[n:]
		for _, h := range hashes {
			delete(bc.poolHash, h)
			bc.sealing[h] = struct{}{}
		}
	}
	bc.poolMu.Unlock()

	// Stage 2: execute against the ledger and derive the root. Only the
	// execution writes, so only it excludes readers; sealSeq keeps every
	// other writer out while this goroutine reads the ledger unlocked.
	armed := ledgerAuditArmed()
	var preNon int64
	if armed {
		preNon = bc.led.nonceSum()
	}
	height := bc.nextHeight()
	bc.execMu.Lock()
	receipts := bc.led.executeBlock(txs, hashes, height)
	bc.execMu.Unlock()
	root, err := bc.led.root()
	if err != nil {
		return nil, nil, err
	}
	var ev *LedgerAuditEvent
	if armed {
		ev = &LedgerAuditEvent{
			Height:     height,
			GenesisWei: bc.genesisWei,
			AccountWei: bc.led.accountWei(),
			EscrowWei:  bc.led.escrowWei(),
			NonceDelta: bc.led.nonceSum() - preNon,
			TxCount:    len(txs),
		}
	}
	// Stage 3: build, seal, log and install.
	prev, err := bc.lastHeaderHash()
	if err != nil {
		return nil, nil, err
	}
	b := &Block{
		Height:    height,
		PrevHash:  prev,
		StateRoot: root,
		TxRoot:    MerkleRoot(hashes),
		Txs:       txs,
		Receipts:  receipts,
		Sealer:    bc.authority.PublicKey(),
		Term:      bc.Term(),
		admitted:  hashes,
	}
	if err := bc.seal(b); err != nil {
		return nil, nil, err
	}
	var ticket *walTicket
	if bc.wal != nil {
		frames, err := encodeWalRec(walRec{Kind: recBlock, Block: b})
		if err != nil {
			return nil, nil, err
		}
		ticket = bc.wal.enqueue(frames, walRec{Kind: recBlock, Block: b})
	}
	bc.installBlock(b, hashes)
	if ev != nil {
		fireLedgerAudit(ev)
	}
	return b, ticket, nil
}

// installBlock appends a sealed block and retires its txs from the dedup
// pipeline: receipts join the sealed index, the sealing set empties, and
// the nonce frontier drops senders with nothing pending (their frontier
// equals the state nonce again).
func (bc *Blockchain) installBlock(b *Block, hashes []string) {
	bc.poolMu.Lock()
	bc.mu.Lock()
	bc.blocks = append(bc.blocks, b)
	bc.mu.Unlock()
	for i := range b.Receipts {
		bc.sealedRcpt[b.Receipts[i].TxHash] = &b.Receipts[i]
	}
	for _, h := range hashes {
		delete(bc.sealing, h)
	}
	bc.pruneNonceLocked(b.Txs)
	bc.poolMu.Unlock()
	mBlocks.Inc()
	mHeight.Set(float64(b.Height))
}

// pruneNonceLocked drops nonce-frontier entries for senders whose frontier
// caught up with their state nonce — without it the persistent frontier
// would grow by one entry per sender forever.
func (bc *Blockchain) pruneNonceLocked(txs []Transaction) {
	for i := range txs {
		from := txs[i].From
		if want, ok := bc.nextNonce[from]; ok && want == bc.Nonce(from) {
			delete(bc.nextNonce, from)
		}
	}
}

func (bc *Blockchain) nextHeight() uint64 {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	return uint64(len(bc.blocks))
}

// lastHeaderHash is the tip's header hash. The tip is the block seal()
// signed last unless that block never got installed (its WAL record failed
// to encode); then the hash is recomputed.
func (bc *Blockchain) lastHeaderHash() (string, error) {
	bc.mu.RLock()
	tip := bc.blocks[len(bc.blocks)-1]
	bc.mu.RUnlock()
	if tip == bc.sealed {
		return bc.sealedHash, nil
	}
	return tip.HeaderHash()
}

// Balance returns the on-ledger balance of addr. Like every ledger read it
// waits only for a block that is mid-execution, never for the seal path.
func (bc *Blockchain) Balance(addr Address) Wei {
	bc.execMu.RLock()
	defer bc.execMu.RUnlock()
	return bc.led.Balances[addr]
}

// Nonce returns the next expected state nonce for addr.
func (bc *Blockchain) Nonce(addr Address) uint64 {
	bc.execMu.RLock()
	defer bc.execMu.RUnlock()
	return bc.led.Nonces[addr]
}

// Height returns the latest block height.
func (bc *Blockchain) Height() uint64 {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	return bc.blocks[len(bc.blocks)-1].Height
}

// BlockAt returns the block at the given height.
func (bc *Blockchain) BlockAt(height uint64) (*Block, error) {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	if height >= uint64(len(bc.blocks)) {
		return nil, fmt.Errorf("chain: no block at height %d", height)
	}
	return bc.blocks[height], nil
}

// ReceiptByHash returns the receipt of the given transaction; it returns
// an error while the transaction is still unsealed.
func (bc *Blockchain) ReceiptByHash(txHash string) (*Receipt, error) {
	bc.poolMu.RLock()
	r := bc.sealedRcpt[txHash]
	bc.poolMu.RUnlock()
	if r == nil {
		return nil, fmt.Errorf("chain: no sealed receipt for tx %s", txHash)
	}
	rcpt := *r // sealed receipts never change; the copy is the caller's
	return &rcpt, nil
}

// ContractView runs fn with read access to the contract state. It blocks
// only while a block is mid-execution, never for the WAL commit.
func (bc *Blockchain) ContractView(fn func(*Contract) error) error {
	bc.execMu.RLock()
	defer bc.execMu.RUnlock()
	return fn(bc.led.Contract)
}

// VerifyChain re-validates every link, seal, and transaction signature.
// It is the traceability guarantee of Sec. III-F: any retroactive tampering
// with recorded results breaks a hash or a signature.
//
// A transaction whose recomputed hash equals the block's admission witness
// is byte-identical to what SubmitTx verified, so its ed25519 check is not
// repeated; a missing, short or differing witness gets the full check. The
// audit walks a snapshot of the block slice (sealed blocks are immutable),
// holding mu only to take it.
func (bc *Blockchain) VerifyChain() error {
	bc.mu.RLock()
	blocks := bc.blocks[:len(bc.blocks):len(bc.blocks)]
	bc.mu.RUnlock()
	var prev *Block
	var prevHash string
	for _, b := range blocks {
		h, err := b.HeaderHash()
		if err != nil {
			return err
		}
		if !Verify(b.Sealer, []byte(h), b.Seal) {
			return fmt.Errorf("%w at height %d", ErrBadSeal, b.Height)
		}
		if prev != nil {
			if b.PrevHash != prevHash {
				return fmt.Errorf("%w at height %d", ErrBrokenLink, b.Height)
			}
			if b.Term < prev.Term {
				return fmt.Errorf("%w: height %d term %d after term %d", ErrStaleTerm, b.Height, b.Term, prev.Term)
			}
		}
		hashes, err := txHashes(b.Txs)
		if err != nil {
			return err
		}
		witnessed := len(b.admitted) == len(hashes)
		for k := range b.Txs {
			if witnessed && b.admitted[k] == hashes[k] {
				continue
			}
			mSigAudit.Inc()
			if err := b.Txs[k].Verify(); err != nil {
				return fmt.Errorf("block %d tx %d: %w", b.Height, k, err)
			}
		}
		if got := MerkleRoot(hashes); got != b.TxRoot {
			return fmt.Errorf("chain: block %d tx root mismatch", b.Height)
		}
		prev, prevHash = b, h
	}
	return nil
}

// StateRoot returns the state root of the latest sealed block — the
// digest the crash-recovery harness compares across kill/restart cycles.
func (bc *Blockchain) StateRoot() string {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	return bc.blocks[len(bc.blocks)-1].StateRoot
}

// Term returns the current fencing term of this validator.
func (bc *Blockchain) Term() uint64 {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	return bc.term
}

// Promote bumps the fencing term, durably (the term record is fsynced
// before Promote returns when a WAL is attached). A standby calls it when
// taking over sealing: every block it seals afterwards carries the higher
// term, and ApplySealedBlock rejects blocks from the deposed primary.
func (bc *Blockchain) Promote() (uint64, error) {
	bc.sealSeq.Lock()
	bc.mu.Lock()
	bc.term++
	term := bc.term
	var ticket *walTicket
	if bc.wal != nil {
		frames, err := encodeWalRec(walRec{Kind: recTerm, Term: term})
		if err != nil {
			bc.term--
			bc.mu.Unlock()
			bc.sealSeq.Unlock()
			return 0, err
		}
		ticket = bc.wal.enqueue(frames, walRec{Kind: recTerm, Term: term})
	}
	bc.mu.Unlock()
	bc.sealSeq.Unlock()
	if err := ticket.wait(); err != nil {
		return 0, fmt.Errorf("chain: term bump not durable: %w", err)
	}
	mTerm.Set(float64(term))
	return term, nil
}

// ApplySealedBlock verifies and installs a block sealed elsewhere (the
// replication path of a standby validator). It re-executes the block's
// transactions against the local state and requires the resulting header
// to hash identically — the standby never trusts the primary's roots.
// Fencing: a block whose term is below the local term is rejected with
// ErrStaleTerm before any state is touched, so a revived primary cannot
// fork a chain its successor already extended.
func (bc *Blockchain) ApplySealedBlock(stored *Block) error {
	return bc.applyStored(stored, true)
}

// applyStored replays stored on top of the current state: the local pool
// must contain the block's transactions as a prefix, in order (admission
// runs while a seal executes, so txs admitted meanwhile follow the block's
// in the pool and in the log), and the re-sealed block must hash
// identically to stored. On success the block is appended and the prefix
// consumed; the remainder stays pooled.
func (bc *Blockchain) applyStored(stored *Block, fence bool) error {
	bc.sealSeq.Lock()
	defer bc.sealSeq.Unlock()
	if fence {
		if term := bc.Term(); stored.Term < term {
			mStaleSeals.Inc()
			return fmt.Errorf("%w: block term %d below local term %d", ErrStaleTerm, stored.Term, term)
		}
	}
	if want := bc.nextHeight(); stored.Height != want {
		return fmt.Errorf("chain: sealed block height %d, want %d", stored.Height, want)
	}
	bc.poolMu.RLock()
	poolLen := len(bc.pool)
	bc.poolMu.RUnlock()
	if len(stored.Txs) > poolLen {
		return fmt.Errorf("chain: sealed block carries %d txs, local pool has %d", len(stored.Txs), poolLen)
	}
	savedTerm := bc.Term()
	bc.setTermExact(stored.Term)
	replayed, ticket, err := bc.sealLocked(len(stored.Txs))
	if err != nil {
		bc.setTermExact(savedTerm)
		return err
	}
	// The local WAL (if any) logs the replayed block; both hash identically
	// so either copy recovers the same chain.
	_ = ticket
	if err := sameBlock(replayed, stored); err != nil {
		return fmt.Errorf("%w: %v", ErrReplayMismatch, err)
	}
	return nil
}

// setTerm raises the fencing term without sealing (the recovery and
// replication path for term records; the durable record already exists in
// the log being replayed or in the primary's WAL).
func (bc *Blockchain) setTerm(term uint64) {
	bc.mu.Lock()
	if term > bc.term {
		bc.term = term
	}
	term = bc.term
	bc.mu.Unlock()
	mTerm.Set(float64(term))
}

// setTermExact installs a term verbatim (replay only; no raise-only guard).
func (bc *Blockchain) setTermExact(term uint64) {
	bc.mu.Lock()
	bc.term = term
	bc.mu.Unlock()
}

// WAL returns the attached write-ahead log, or nil for an in-memory chain.
func (bc *Blockchain) WAL() *WAL { return bc.wal }

// attachWAL wires the log into the submit/seal paths. It must happen
// before the chain is shared across goroutines.
func (bc *Blockchain) attachWAL(w *WAL) { bc.wal = w }

// CloseDurable flushes and closes the WAL (no-op for in-memory chains).
// The chain refuses durable operations afterwards.
func (bc *Blockchain) CloseDurable() error {
	if bc.wal == nil {
		return nil
	}
	return bc.wal.Close()
}
