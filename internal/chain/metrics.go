package chain

import "tradefl/internal/obs"

// Telemetry of the settlement chain: admission, sealing, RPC traffic, and
// the budget-balance residual charged to the first member (Sec. III-F).
var (
	mTxSubmitted = obs.NewCounter("tradefl_chain_tx_submitted_total", "transactions accepted into the mempool")
	mBlocks      = obs.NewCounter("tradefl_chain_blocks_sealed_total", "blocks sealed")
	mHeight      = obs.NewGauge("tradefl_chain_height", "latest block height")
	mResidual    = obs.NewGauge("tradefl_chain_budget_residual_wei", "rounding residual of the last payoffCalculate before it was charged to member 0 (budget balance, Definition 5)")
	mSealSec     = obs.NewHistogram("tradefl_chain_seal_seconds", "wall time of SealBlock incl. state-root computation", obs.TimeBuckets)
	mRPCRequests = obs.NewCounter("tradefl_chain_rpc_requests_total", "JSON-RPC requests served")
	mRPCErrors   = obs.NewCounter("tradefl_chain_rpc_errors_total", "JSON-RPC requests answered with an error object")
	mRPCTooLarge = obs.NewCounter("tradefl_chain_rpc_body_too_large_total", "JSON-RPC requests rejected with 413 because the body exceeded MaxRequestBody")
)

// Where transaction signatures are checked: once at admission, and again by
// VerifyChain only for a transaction its block's admission witness does not
// cover. A nonzero audit series on a chain this process admitted means
// something forced the slow path.
const sigVerifyHelp = "Transaction.Verify calls (one ed25519 verification each), by call site"

var (
	mSigAdmit = obs.NewLabeledCounter("tradefl_chain_sig_verifications_total", sigVerifyHelp, obs.LabelPair{Key: "site", Value: "admit"})
	mSigAudit = obs.NewLabeledCounter("tradefl_chain_sig_verifications_total", sigVerifyHelp, obs.LabelPair{Key: "site", Value: "audit"})
)

// Durability telemetry: write-ahead log traffic and group-commit shape,
// snapshot/checkpoint activity, recovery work, and the fencing-term state
// of validator failover.
var (
	mWALBytes    = obs.NewCounter("tradefl_chain_wal_bytes_total", "framed bytes fsynced to the write-ahead log")
	mWALFsyncs   = obs.NewCounter("tradefl_chain_wal_fsyncs_total", "fsync calls issued by the WAL syncer (one per group commit)")
	mWALFsyncSec = obs.NewHistogram("tradefl_chain_wal_fsync_seconds", "wall time of one WAL fsync", obs.TimeBuckets)
	mWALBatch    = obs.NewHistogram("tradefl_chain_wal_batch_records", "records per group commit (batching factor of the syncer)", obs.ExpBuckets(1, 2, 10))
	mSnapshotSec = obs.NewHistogram("tradefl_chain_snapshot_seconds", "wall time of one Checkpoint incl. snapshot write and segment GC", obs.TimeBuckets)
	mRecoverSec  = obs.NewHistogram("tradefl_chain_recover_seconds", "wall time of a full Recover (snapshot replay + WAL replay)", obs.TimeBuckets)
	mRecoverBack = obs.NewCounter("tradefl_chain_recover_snapshot_fallbacks_total", "snapshots a recovery found unusable and passed over for an older one (a defect in the snapshot or its WAL suffix, not resilience)")
	mTerm        = obs.NewGauge("tradefl_chain_term", "current fencing term of this validator")
	mStaleSeals  = obs.NewCounter("tradefl_chain_stale_term_rejects_total", "sealed blocks rejected because their fencing term was stale (fenced-off revived primary)")
	mReplApplied = obs.NewCounter("tradefl_chain_replicated_records_total", "WAL records applied by a standby from the replication stream")
)

// Client-side resilience telemetry: how often the RPC client had to retry
// a transport failure, or recovered from a lost response via the
// already-known dedup path. A give-up is a flight event.
var (
	mClientRetries = obs.NewCounter("tradefl_chain_client_retries_total", "RPC calls retried after a transport failure")
	mClientDedups  = obs.NewCounter("tradefl_chain_client_submit_dedups_total", "SubmitTx retries resolved as success because the chain already knew the transaction")
)
