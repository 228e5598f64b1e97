package chain

import "testing"

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
