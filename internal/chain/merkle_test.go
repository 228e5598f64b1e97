package chain

import (
	"fmt"
	"testing"
)

func TestMerkleRootStability(t *testing.T) {
	a := MerkleRoot([]string{"tx1", "tx2", "tx3"})
	b := MerkleRoot([]string{"tx1", "tx2", "tx3"})
	if a != b {
		t.Error("root not deterministic")
	}
	if MerkleRoot([]string{"tx1", "tx2"}) == MerkleRoot([]string{"tx2", "tx1"}) {
		t.Error("root insensitive to order")
	}
	if MerkleRoot(nil) != MerkleRoot([]string{}) {
		t.Error("empty roots differ")
	}
	if MerkleRoot([]string{"x"}) == MerkleRoot(nil) {
		t.Error("single-leaf root equals empty root")
	}
}

func TestMerkleProofRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13} {
		hashes := make([]string, n)
		for i := range hashes {
			hashes[i] = fmt.Sprintf("tx-%d", i)
		}
		root := MerkleRoot(hashes)
		for i := 0; i < n; i++ {
			proof, err := BuildMerkleProof(hashes, i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if proof.Root != root {
				t.Fatalf("n=%d i=%d: proof root %s != %s", n, i, proof.Root, root)
			}
			if err := proof.Verify(); err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
		}
	}
}

func TestMerkleProofDetectsTampering(t *testing.T) {
	hashes := []string{"a", "b", "c", "d", "e"}
	proof, err := BuildMerkleProof(hashes, 2)
	if err != nil {
		t.Fatal(err)
	}
	proof.TxHash = "forged"
	if err := proof.Verify(); err == nil {
		t.Error("forged tx hash verified")
	}
	proof, _ = BuildMerkleProof(hashes, 2)
	proof.Path[0].Sibling = "evil"
	if err := proof.Verify(); err == nil {
		t.Error("tampered path verified")
	}
	var nilProof *MerkleProof
	if err := nilProof.Verify(); err == nil {
		t.Error("nil proof verified")
	}
}

func TestBuildMerkleProofBounds(t *testing.T) {
	if _, err := BuildMerkleProof([]string{"a"}, 1); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := BuildMerkleProof(nil, 0); err == nil {
		t.Error("empty list accepted")
	}
}

func TestBlockTxProof(t *testing.T) {
	f := newFixture(t, 3)
	for i, a := range f.accounts {
		tx, err := NewTransaction(a, 0, FnDepositSubmit, nil, MinDeposit(f.params, i, 5e9))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.bc.SubmitTx(*tx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.bc.SealBlock(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		proof, err := f.bc.TxProof(1, i)
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		if err := proof.Verify(); err != nil {
			t.Errorf("tx %d: %v", i, err)
		}
	}
	if _, err := f.bc.TxProof(1, 7); err == nil {
		t.Error("out-of-range tx proof accepted")
	}
	if _, err := f.bc.TxProof(99, 0); err == nil {
		t.Error("missing block accepted")
	}
}

func TestVerifyChainChecksTxRoot(t *testing.T) {
	f := newFixture(t, 2)
	f.sendOK(t, f.accounts[0], FnDepositSubmit, nil, 100)
	if err := f.bc.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	// Tampering with a tx changes its hash, breaking both the tx root and
	// the seal; TamperBlockForTest exercises that path.
	if err := f.bc.TamperBlockForTest(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.bc.VerifyChain(); err == nil {
		t.Error("tampering not detected via roots/seal")
	}
}
