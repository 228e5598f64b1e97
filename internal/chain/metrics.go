package chain

import "tradefl/internal/obs"

// Telemetry of the settlement chain: transaction flow, sealing, and the
// contract-level credibility signals of Sec. III-F (payoff transfers and
// the budget-balance residual charged to the first member).
var (
	mTxSubmitted = obs.NewCounter("tradefl_chain_tx_submitted_total", "transactions accepted into the mempool")
	mTxMined     = obs.NewCounter("tradefl_chain_tx_mined_total", "transactions sealed with an OK receipt")
	mTxFailed    = obs.NewCounter("tradefl_chain_tx_failed_total", "transactions sealed with an error receipt")
	mBlocks      = obs.NewCounter("tradefl_chain_blocks_sealed_total", "blocks sealed")
	mHeight      = obs.NewGauge("tradefl_chain_height", "latest block height")
	mTransfers   = obs.NewCounter("tradefl_chain_payoff_transfers_total", "payoffTransfer settlements executed")
	mTransferWei = obs.NewCounter("tradefl_chain_payoff_transfer_wei_total", "wei returned to members by payoffTransfer (deposit + redistribution)")
	mResidual    = obs.NewGauge("tradefl_chain_budget_residual_wei", "rounding residual of the last payoffCalculate before it was charged to member 0 (budget balance, Definition 5)")
	mSealSec     = obs.NewHistogram("tradefl_chain_seal_seconds", "wall time of SealBlock incl. state-root computation", obs.TimeBuckets)
	mRPCRequests = obs.NewCounter("tradefl_chain_rpc_requests_total", "JSON-RPC requests served")
	mRPCErrors   = obs.NewCounter("tradefl_chain_rpc_errors_total", "JSON-RPC requests answered with an error object")
	mRPCTooLarge = obs.NewCounter("tradefl_chain_rpc_body_too_large_total", "JSON-RPC requests rejected with 413 because the body exceeded MaxRequestBody")
	mTxDeduped   = obs.NewCounter("tradefl_chain_tx_deduped_total", "resubmissions rejected because the transaction was already pending or sealed")
)

// How the bounded dedup index and batched submission behave.
var (
	mDedupEvicted = obs.NewCounter("tradefl_chain_dedup_evicted_total", "sealed tx hashes evicted from the O(1) dedup index by the FIFO horizon")
	mBatchSubmits = obs.NewCounter("tradefl_chain_batch_submits_total", "SubmitTxBatch calls admitted (one WAL group commit each)")
	mBatchTxs     = obs.NewCounter("tradefl_chain_batch_txs_total", "transactions submitted through SubmitTxBatch")
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
	mWALAppends  = obs.NewCounter("tradefl_chain_wal_records_total", "records made durable in the write-ahead log")
	mWALBytes    = obs.NewCounter("tradefl_chain_wal_bytes_total", "framed bytes fsynced to the write-ahead log")
	mWALFsyncs   = obs.NewCounter("tradefl_chain_wal_fsyncs_total", "fsync calls issued by the WAL syncer (one per group commit)")
	mWALFsyncSec = obs.NewHistogram("tradefl_chain_wal_fsync_seconds", "wall time of one WAL fsync", obs.TimeBuckets)
	mWALBatch    = obs.NewHistogram("tradefl_chain_wal_batch_records", "records per group commit (batching factor of the syncer)", obs.ExpBuckets(1, 2, 10))
	mWALSegments = obs.NewCounter("tradefl_chain_wal_rotations_total", "WAL segment rotations (checkpoints)")
	mSnapshots   = obs.NewCounter("tradefl_chain_snapshots_total", "incremental snapshots written by Checkpoint")
	mSnapshotSec = obs.NewHistogram("tradefl_chain_snapshot_seconds", "wall time of one Checkpoint incl. snapshot write and segment GC", obs.TimeBuckets)
	mRecoverSec  = obs.NewHistogram("tradefl_chain_recover_seconds", "wall time of a full Recover (snapshot replay + WAL replay)", obs.TimeBuckets)
	mRecoverTxs  = obs.NewCounter("tradefl_chain_recover_wal_records_total", "WAL records replayed during recovery")
	mRecoverBack = obs.NewCounter("tradefl_chain_recover_snapshot_fallbacks_total", "snapshots a recovery found unusable and passed over for an older one (a defect in the snapshot or its WAL suffix, not resilience)")
	mTornBytes   = obs.NewCounter("tradefl_chain_wal_torn_bytes_total", "bytes truncated off torn WAL tails during recovery")
	mTerm        = obs.NewGauge("tradefl_chain_term", "current fencing term of this validator")
	mStaleSeals  = obs.NewCounter("tradefl_chain_stale_term_rejects_total", "sealed blocks rejected because their fencing term was stale (fenced-off revived primary)")
	mFailovers   = obs.NewCounter("tradefl_chain_failovers_total", "standby promotions to active sealer")
	mReplApplied = obs.NewCounter("tradefl_chain_replicated_records_total", "WAL records applied by a standby from the replication stream")
)

// Client-side resilience telemetry: how often the RPC client had to retry
// a transport failure, gave up, or recovered from a lost response via the
// already-known dedup path.
var (
	mClientRetries = obs.NewCounter("tradefl_chain_client_retries_total", "RPC calls retried after a transport failure")
	mClientGiveups = obs.NewCounter("tradefl_chain_client_giveups_total", "RPC calls abandoned after exhausting every retry")
	mClientDedups  = obs.NewCounter("tradefl_chain_client_submit_dedups_total", "SubmitTx retries resolved as success because the chain already knew the transaction")
	mClientCallSec = obs.NewHistogram("tradefl_chain_client_call_seconds", "wall time of a client Call incl. retries and backoff", obs.TimeBuckets)
)
