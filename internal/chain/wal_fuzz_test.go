package chain

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALRecover feeds arbitrary bytes as the records after the genesis
// record of an otherwise valid log. Whatever the bytes, recovery must
//
//  1. never panic,
//  2. never apply anything beyond the clean frame prefix (a corrupt or
//     torn record ends the durable history — if recovery succeeds, the
//     recovered shape must equal a replay of exactly that prefix), and
//  3. be idempotent: recovering the recovered directory again lands on
//     the identical state.
func FuzzWALRecover(f *testing.F) {
	fx := newDurableFixture(f, 2)
	fx.submit(f, 0, FnDepositSubmit, nil, MinDeposit(fx.params, 0, 5e9))
	fx.submit(f, 1, FnDepositSubmit, nil, MinDeposit(fx.params, 1, 5e9))
	if _, err := fx.bc.SealBlock(); err != nil {
		f.Fatal(err)
	}
	fx.submit(f, 0, FnContributionSubmit, Contribution{D: 0.5, F: 3e9}, 0)
	if err := fx.bc.CloseDurable(); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(fx.dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	genesisEnd := genesisFrameEnd(f, log)
	genesis, seg := log[:genesisEnd], log[genesisEnd:]

	// Seeds: the real records, tears, tail garbage, and a flipped byte in
	// the middle of a record.
	f.Add(seg)
	f.Add(seg[:len(seg)/2])
	f.Add(append(append([]byte{}, seg...), 0xde, 0xad, 0xbe, 0xef))
	mut := append([]byte{}, seg...)
	mut[len(mut)/3] ^= 0x40
	f.Add(mut)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, segBytes []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), append(append([]byte{}, genesis...), segBytes...), 0o600); err != nil {
			t.Fatal(err)
		}
		bc, err := Recover(dir, fx.authority)
		if err != nil {
			return // rejecting corrupt history is always legal
		}
		// Success: the recovered shape must match a simulation of exactly
		// the clean frame prefix — nothing past the first tear or corrupt
		// frame may have been applied.
		var wantHeight, wantPending int
		_, _ = scanFrames(bytes.NewReader(segBytes), func(p []byte) error {
			var rec walRec
			if err := json.Unmarshal(p, &rec); err != nil {
				t.Fatalf("recovery succeeded over an undecodable record: %v", err)
			}
			switch rec.Kind {
			case recTx:
				wantPending++
			case recBlock:
				wantHeight++
				wantPending = 0
			}
			return nil
		})
		if got := int(bc.Height()); got != wantHeight {
			t.Fatalf("recovered height %d, clean prefix has %d blocks", got, wantHeight)
		}
		if got := bc.PendingCount(); got != wantPending {
			t.Fatalf("recovered %d pending txs, clean prefix has %d", got, wantPending)
		}
		if err := bc.VerifyChain(); err != nil {
			t.Fatalf("recovered chain fails verification: %v", err)
		}
		root := bc.StateRoot()
		if err := bc.CloseDurable(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		bc2, err := Recover(dir, fx.authority)
		if err != nil {
			t.Fatalf("second recovery of a recovered directory failed: %v", err)
		}
		if bc2.StateRoot() != root || bc2.Height() != uint64(wantHeight) {
			t.Fatalf("second recovery diverged: root %s vs %s", bc2.StateRoot(), root)
		}
		if err := bc2.CloseDurable(); err != nil {
			t.Fatal(err)
		}
	})
}
