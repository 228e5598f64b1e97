package chain

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// Wei is the chain's integer currency unit. One token = 1e6 wei; payoff
// redistribution amounts are converted with ToWei/FromWei.
type Wei int64

// WeiPerToken is the fixed-point scale of the currency.
const WeiPerToken = 1_000_000

// ToWei converts a float token amount to wei (round-to-nearest).
func ToWei(tokens float64) Wei {
	if tokens >= 0 {
		return Wei(tokens*WeiPerToken + 0.5)
	}
	return Wei(tokens*WeiPerToken - 0.5)
}

// FromWei converts wei to float tokens.
func FromWei(w Wei) float64 { return float64(w) / WeiPerToken }

// Function names the contract ABI entry points of Table I.
type Function string

// The five ABI functions of the TradeFL smart contract (Table I).
const (
	FnDepositSubmit      Function = "depositSubmit"
	FnContributionSubmit Function = "contributionSubmit"
	FnPayoffCalculate    Function = "payoffCalculate"
	FnPayoffTransfer     Function = "payoffTransfer"
	FnProfileRecord      Function = "profileRecord"
)

// FnTransfer is a chain-native value transfer: it moves the attached Value
// from the sender to TransferArgs.To without touching the contract.
const FnTransfer Function = "transfer"

// TransferArgs is the argument of FnTransfer.
type TransferArgs struct {
	To Address `json:"to"`
}

// transferDest decodes and validates a transfer's destination.
func transferDest(tx *Transaction) (Address, error) {
	var a TransferArgs
	if err := json.Unmarshal(tx.Args, &a); err != nil {
		return ZeroAddress, fmt.Errorf("%w: transfer: %v", ErrBadArgs, err)
	}
	if a.To == ZeroAddress {
		return ZeroAddress, fmt.Errorf("%w: transfer to zero address", ErrBadArgs)
	}
	if tx.Value <= 0 {
		return ZeroAddress, fmt.Errorf("%w: transfer value must be positive", ErrBadArgs)
	}
	return a.To, nil
}

// Transaction is a signed contract call.
type Transaction struct {
	// From is the sender address (must match the public key).
	From Address `json:"from"`
	// Nonce is the sender's transaction counter, starting at 0.
	Nonce uint64 `json:"nonce"`
	// Fn is the contract function to invoke.
	Fn Function `json:"fn"`
	// Args is the JSON-encoded argument object for Fn.
	Args json.RawMessage `json:"args,omitempty"`
	// Value is the attached currency (deposits).
	Value Wei `json:"value"`
	// PubKey is the sender's ed25519 public key.
	PubKey []byte `json:"pubKey"`
	// Sig is the ed25519 signature over SigHash.
	Sig []byte `json:"sig"`
}

// SigHash returns the digest that is signed: the hash of the transaction's
// JSON document without its signature.
func (tx *Transaction) SigHash() ([]byte, error) {
	raw, err := appendTx(make([]byte, 0, tx.sizeHint()), tx, false)
	if err != nil {
		return nil, fmt.Errorf("chain: marshal tx: %w", err)
	}
	sum := sha256.Sum256(raw)
	return sum[:], nil
}

// Hash returns the transaction id: the hash of the full signed payload.
func (tx *Transaction) Hash() (string, error) {
	raw, err := appendTx(make([]byte, 0, tx.sizeHint()), tx, true)
	if err != nil {
		return "", fmt.Errorf("chain: marshal tx: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// NewTransaction builds and signs a contract call from acct.
func NewTransaction(acct *Account, nonce uint64, fn Function, args any, value Wei) (*Transaction, error) {
	if value < 0 {
		return nil, errors.New("chain: negative tx value")
	}
	var raw json.RawMessage
	if args != nil {
		b, err := json.Marshal(args)
		if err != nil {
			return nil, fmt.Errorf("chain: marshal args: %w", err)
		}
		raw = b
	}
	tx := &Transaction{
		From:   acct.Address(),
		Nonce:  nonce,
		Fn:     fn,
		Args:   raw,
		Value:  value,
		PubKey: acct.PublicKey(),
	}
	digest, err := tx.SigHash()
	if err != nil {
		return nil, err
	}
	tx.Sig = acct.Sign(digest)
	return tx, nil
}

// Verify checks the signature and sender consistency of the transaction.
func (tx *Transaction) Verify() error {
	if len(tx.PubKey) != ed25519.PublicKeySize {
		return errors.New("chain: bad public key size")
	}
	if AddressOf(tx.PubKey) != tx.From {
		return errors.New("chain: sender address does not match public key")
	}
	if tx.Value < 0 {
		return errors.New("chain: negative tx value")
	}
	digest, err := tx.SigHash()
	if err != nil {
		return err
	}
	if !Verify(tx.PubKey, digest, tx.Sig) {
		return errors.New("chain: invalid signature")
	}
	return nil
}
