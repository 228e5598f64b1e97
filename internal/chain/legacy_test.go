package chain

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"tradefl/internal/durable"
)

// legacyWant is what the snapshot-format code recorded for a fixture
// directory it wrote (testdata/legacy/*/want.json).
type legacyWant struct {
	Height  uint64   `json:"height"`
	Root    string   `json:"root"`
	Pending int      `json:"pending"`
	Roots   []string `json:"roots"` // sealed state root per height
}

// copyLegacy copies the old-format fixture name into a fresh directory and
// returns it with the fixture's recorded outcome.
func copyLegacy(t *testing.T, name string) (string, legacyWant) {
	t.Helper()
	src := filepath.Join("testdata", "legacy", name)
	var want legacyWant
	raw, err := os.ReadFile(filepath.Join(src, "want.json"))
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "want.json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dir, want
}

// dirNames lists a directory's file names, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// checkLegacyChain requires bc to be the fixture's recorded chain.
func checkLegacyChain(t *testing.T, stage string, bc *Blockchain, want legacyWant) {
	t.Helper()
	if bc.Height() != want.Height || bc.StateRoot() != want.Root || bc.PendingCount() != want.Pending {
		t.Fatalf("%s: height %d root %s pending %d, want %d %s %d", stage,
			bc.Height(), bc.StateRoot(), bc.PendingCount(), want.Height, want.Root, want.Pending)
	}
	if err := bc.VerifyChain(); err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
}

// checkLegacyViews requires every point-in-time view of dir to match the
// sealed root the fixture recorded for its height.
func checkLegacyViews(t *testing.T, stage, dir string, authority *Account, want legacyWant) {
	t.Helper()
	for h, root := range want.Roots {
		view, err := RecoverAt(dir, authority, uint64(h))
		if err != nil {
			t.Fatalf("%s: RecoverAt(%d): %v", stage, h, err)
		}
		if view.Height() != uint64(h) || view.StateRoot() != root {
			t.Fatalf("%s: RecoverAt(%d) at height %d root %s, want root %s", stage, h, view.Height(), view.StateRoot(), root)
		}
	}
}

// TestLegacyDirConverts opens directories the snapshot-format code wrote
// (testdata/legacy/README.md): one checkpointed twice, whose newest
// snapshot holds a pooled tx and a fencing term, with a block past it and a
// pending tx; one never checkpointed, copied from a live chain with its
// zero-fill. Point-in-time views read them in place; OpenDurable converts
// them to one log with the recorded height, state root and pending count,
// and removes the old files.
func TestLegacyDirConverts(t *testing.T) {
	for _, name := range []string{"checkpointed", "uncheckpointed"} {
		t.Run(name, func(t *testing.T) {
			f := newDurableFixture(t, 3) // the fixtures' seed: same authority and genesis
			dir, want := copyLegacy(t, name)
			before := dirNames(t, dir)
			checkLegacyViews(t, "unconverted", dir, f.authority, want)
			if got := dirNames(t, dir); len(got) != len(before) {
				t.Fatalf("point-in-time views changed the directory: %v, was %v", got, before)
			}

			bc, err := OpenDurable(dir, f.authority, f.params, f.alloc)
			if err != nil {
				t.Fatal(err)
			}
			checkLegacyChain(t, "converted", bc, want)
			if got := dirNames(t, dir); len(got) != 1 || got[0] != logName {
				t.Fatalf("directory after conversion: %v, want only %s", got, logName)
			}
			if err := bc.CloseDurable(); err != nil {
				t.Fatal(err)
			}
			checkLegacyViews(t, "converted", dir, f.authority, want)
			again, err := Recover(dir, f.authority)
			if err != nil {
				t.Fatal(err)
			}
			checkLegacyChain(t, "recovered", again, want)
			if err := again.CloseDurable(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLegacyConversionKilledBeforeCleanup: a kill after the converted log
// was renamed into place but before the old files were removed leaves
// both. The next recovery replays the log exactly and finishes the
// cleanup.
func TestLegacyConversionKilledBeforeCleanup(t *testing.T) {
	f := newDurableFixture(t, 3)
	dir, want := copyLegacy(t, "checkpointed")
	log, err := convertLegacy(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteFileAtomic(filepath.Join(dir, logName), log, 0o600); err != nil {
		t.Fatal(err)
	}
	checkLegacyViews(t, "killed", dir, f.authority, want)
	bc, err := Recover(dir, f.authority)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.CloseDurable()
	checkLegacyChain(t, "recovered", bc, want)
	if got := dirNames(t, dir); len(got) != 1 || got[0] != logName {
		t.Fatalf("directory after recovery: %v, want only %s", got, logName)
	}
}

// TestLegacyDamagedSnapshotIsAnError: conversion reads only the newest
// snapshot. Damage there is an error, not a fallback to an older one, and
// the directory is left as it was.
func TestLegacyDamagedSnapshotIsAnError(t *testing.T) {
	f := newDurableFixture(t, 3)
	dir, _ := copyLegacy(t, "checkpointed")
	if err := os.WriteFile(filepath.Join(dir, "snap-00000003.json"), []byte("{definitely not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	before := dirNames(t, dir)
	if bc, err := Recover(dir, f.authority); !errors.Is(err, ErrWALCorrupt) || bc != nil {
		t.Fatalf("Recover over a damaged snapshot: chain returned %v, err %v; want none and ErrWALCorrupt", bc != nil, err)
	}
	if got := dirNames(t, dir); len(got) != len(before) {
		t.Fatalf("failed conversion changed the directory: %v, was %v", got, before)
	}
}
