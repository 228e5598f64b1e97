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
	// after Transaction.Verify succeeded (the pool's poolHashes, taken by
	// sealLocked). It is process-local evidence, never serialized — a
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
//	sealSeq → execMu → poolMu → mu
//
// sealSeq serializes the seal path (SealBlock, ApplySealedBlock, Promote)
// and is held across the WAL fsync wait, so nothing a seal or a promotion
// changes is installed before its record is durable. execMu guards the
// ledger (accounts and contract): a seal holds it exclusively from block
// execution through install, so Balance, Nonce and ContractView (which
// hold it shared) wait for at most one block's execution and fsync and
// never read state that is not durable. poolMu guards the mempool and
// dedup indexes; admission takes only poolMu, so it runs while a block
// commits. mu guards the sealed chain and the fencing term.
type Blockchain struct {
	sealSeq sync.Mutex

	// Mempool + dedup indexes, under poolMu: pool/poolHashes hold pending
	// txs (and their ids) in admission order — a block being sealed stays
	// at their head until install drops it — and poolHash dedups them O(1).
	// nextNonce is the pending-nonce frontier per sender: every admitted tx
	// consumes exactly one nonce when it executes, even a failing one, so
	// an entry always equals the sender's state nonce plus its pending txs.
	// sealedRcpt maps every sealed tx id to its receipt inside blocks: it
	// lives as long as the blocks it points into.
	poolMu     sync.RWMutex
	pool       []Transaction
	poolHashes []string
	poolHash   map[string]struct{}
	nextNonce  map[Address]uint64
	sealedRcpt map[string]*Receipt

	// execMu guards led: exclusive while a block executes and commits,
	// shared for readers.
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

// PendingCount returns the number of accepted-but-unsealed transactions.
func (bc *Blockchain) PendingCount() int {
	bc.poolMu.RLock()
	defer bc.poolMu.RUnlock()
	return len(bc.pool)
}

// SealBlock applies every pending transaction (in submission order) and
// appends a sealed block. Failed transactions are included with an error
// receipt; their state effects are rolled back individually. With a WAL
// attached the block — its height, receipts and ledger effects — becomes
// readable only once its record is fsynced, and a failed commit returns
// the error and installs nothing.
func (bc *Blockchain) SealBlock() (*Block, error) {
	bc.sealSeq.Lock()
	defer bc.sealSeq.Unlock()
	return bc.sealLocked(-1, bc.Term())
}

// sealLocked seals the first take pool txs (take < 0: the whole pool) at
// fencing term term. Caller holds sealSeq. There is one order:
//
//	execute → state root → sign → WAL enqueue → wait for the fsync → install
//
// execMu is held exclusively from execution through install, and the txs
// stay at the head of the pool (pending for dedup) until install drops
// them, so nothing of the block is readable before it is durable. A block
// that does not install — its commit failed — is rolled back out of the
// ledger; the WAL's error is sticky, so the chain then refuses every later
// durable operation.
func (bc *Blockchain) sealLocked(take int, term uint64) (*Block, error) {
	if bc.wal != nil {
		if err := bc.wal.Err(); err != nil {
			return nil, fmt.Errorf("chain: wal unavailable: %w", err)
		}
	}
	sealStart := time.Now()
	bc.execMu.Lock()
	defer bc.execMu.Unlock()
	bc.poolMu.RLock()
	n := len(bc.pool)
	if take >= 0 && take < n {
		n = take
	}
	var txs []Transaction
	var hashes []string
	if n > 0 {
		txs, hashes = bc.pool[:n:n], bc.poolHashes[:n:n]
	}
	bc.poolMu.RUnlock()

	armed := ledgerAuditArmed()
	var preNon int64
	if armed {
		preNon = bc.led.nonceSum()
	}
	height := bc.nextHeight()
	receipts := bc.led.executeBlock(txs, hashes, height)
	defer func() {
		if bc.led.undo != nil { // not installed
			bc.led.rollback()
		}
	}()
	root, err := bc.led.root()
	if err != nil {
		return nil, err
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
	prev, err := bc.lastHeaderHash()
	if err != nil {
		return nil, err
	}
	b := &Block{
		Height:    height,
		PrevHash:  prev,
		StateRoot: root,
		TxRoot:    MerkleRoot(hashes),
		Txs:       txs,
		Receipts:  receipts,
		Sealer:    bc.authority.PublicKey(),
		Term:      term,
		admitted:  hashes,
	}
	if err := bc.seal(b); err != nil {
		return nil, err
	}
	var ticket *walTicket
	if bc.wal != nil {
		rec := walRec{Kind: recBlock, Block: b}
		frames, err := encodeWalRec(rec)
		if err != nil {
			return nil, err
		}
		ticket = bc.wal.enqueue(frames, rec)
	}
	if err := ticket.wait(); err != nil {
		return nil, fmt.Errorf("chain: block not durable: %w", err)
	}
	bc.installBlock(b)
	mSealSec.ObserveSince(sealStart)
	if ev != nil {
		fireLedgerAudit(ev)
	}
	return b, nil
}

// installBlock appends a durable block: its txs leave the head of the pool
// and their receipts join the sealed index in one poolMu hold, so a
// resubmission finds them pending or sealed, never neither. The term is
// raised to the block's, and the block's undo is dropped. Caller holds
// execMu.
func (bc *Blockchain) installBlock(b *Block) {
	bc.led.undo = nil
	n := len(b.Txs)
	bc.poolMu.Lock()
	for _, h := range bc.poolHashes[:n] {
		delete(bc.poolHash, h)
	}
	bc.pool, bc.poolHashes = bc.pool[n:], bc.poolHashes[n:]
	for i := range b.Receipts {
		bc.sealedRcpt[b.Receipts[i].TxHash] = &b.Receipts[i]
	}
	bc.mu.Lock()
	bc.blocks = append(bc.blocks, b)
	bc.term = max(bc.term, b.Term)
	bc.mu.Unlock()
	bc.poolMu.Unlock()
	mBlocks.Inc()
	mHeight.Set(float64(b.Height))
}

func (bc *Blockchain) nextHeight() uint64 {
	bc.mu.RLock()
	defer bc.mu.RUnlock()
	return uint64(len(bc.blocks))
}

// lastHeaderHash is the tip's header hash. The tip is the block seal()
// signed last unless that block never got installed (its WAL record failed
// to encode or commit); then the hash is recomputed.
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
// waits for a block that is executing or committing, so it never returns
// state that is not durable.
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

// ContractView runs fn with read access to the contract state. It waits
// like Balance.
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

// Promote bumps the fencing term, durably: with a WAL attached the new
// term is readable only once its record is fsynced. A standby calls it
// when taking over sealing: every block it seals afterwards carries the
// higher term, and ApplySealedBlock rejects blocks from the deposed
// primary.
func (bc *Blockchain) Promote() (uint64, error) {
	bc.sealSeq.Lock()
	defer bc.sealSeq.Unlock()
	term := bc.Term() + 1
	if bc.wal != nil {
		rec := walRec{Kind: recTerm, Term: term}
		frames, err := encodeWalRec(rec)
		if err != nil {
			return 0, err
		}
		if err := bc.wal.enqueue(frames, rec).wait(); err != nil {
			return 0, fmt.Errorf("chain: term bump not durable: %w", err)
		}
	}
	bc.setTerm(term)
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
// must contain the block's transactions as a prefix, in order (txs
// admitted while the block was sealed follow it in the pool and may
// precede its record in the log), and the re-sealed block, at the stored
// term, must hash identically to stored. On success the block is appended
// and the prefix consumed; the remainder stays pooled.
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
	if poolLen := bc.PendingCount(); len(stored.Txs) > poolLen {
		return fmt.Errorf("chain: sealed block carries %d txs, local pool has %d", len(stored.Txs), poolLen)
	}
	replayed, err := bc.sealLocked(len(stored.Txs), stored.Term)
	if err != nil {
		return err
	}
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
	bc.term = max(bc.term, term)
	term = bc.term
	bc.mu.Unlock()
	mTerm.Set(float64(term))
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
