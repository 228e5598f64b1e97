// Package model implements the trainable models of the FL simulator: fully
// connected ReLU networks with a softmax cross-entropy head, trained by
// mini-batch SGD. An architecture registry maps the paper's model names
// (ResNet-18, AlexNet, DenseNet, MobileNet) to network capacities that
// preserve their relative ordering (DESIGN.md §2).
package model

import (
	"errors"
	"fmt"

	"tradefl/internal/fl/dataset"
	"tradefl/internal/fl/tensor"
	"tradefl/internal/randx"
)

// MLP is a fully connected network: Dim → Hidden[0] → … → Classes with
// ReLU activations between layers.
type MLP struct {
	weights []*tensor.Matrix // weights[l]: (in × out)
	biases  []*tensor.Matrix // biases[l]: (1 × out)
	dims    []int            // layer widths incl. input and output
}

// Arch describes a network architecture plus its training hyperparameters.
type Arch struct {
	// Name identifies the architecture ("resnet18", ...).
	Name string
	// Hidden lists the hidden layer widths.
	Hidden []int
	// LearningRate is the SGD step size.
	LearningRate float64
	// BatchSize is the mini-batch size.
	BatchSize int
}

// Registry returns the architecture registry. Capacities are chosen so the
// relative strength ordering of the paper's models is preserved:
// ResNet-18 ≳ DenseNet > AlexNet > MobileNet.
func Registry() []Arch {
	return []Arch{
		// Plain SGD: the Figs. 13-15 comparisons measure how the *data
		// volumes* the schemes choose translate into model quality, and
		// momentum's acceleration washes those differences out.
		{Name: "resnet18", Hidden: []int{64, 64}, LearningRate: 0.1, BatchSize: 32},
		{Name: "densenet", Hidden: []int{48, 48}, LearningRate: 0.1, BatchSize: 32},
		{Name: "alexnet", Hidden: []int{48}, LearningRate: 0.1, BatchSize: 32},
		{Name: "mobilenet", Hidden: []int{24}, LearningRate: 0.1, BatchSize: 32},
	}
}

// ArchByName returns the named architecture.
func ArchByName(name string) (Arch, error) {
	for _, a := range Registry() {
		if a.Name == name {
			return a, nil
		}
	}
	return Arch{}, fmt.Errorf("model: unknown architecture %q", name)
}

// NewForArch builds a network with an architecture entry's capacity.
func NewForArch(inputDim, classes int, arch Arch, seed int64) (*MLP, error) {
	return NewMLP(inputDim, classes, arch.Hidden, seed)
}

// NewMLP builds a network for the given input dimension and class count,
// initialized with Xavier weights from the seed.
func NewMLP(inputDim, classes int, hidden []int, seed int64) (*MLP, error) {
	if inputDim <= 0 || classes <= 1 {
		return nil, fmt.Errorf("model: invalid dims input=%d classes=%d", inputDim, classes)
	}
	dims := make([]int, 0, len(hidden)+2)
	dims = append(dims, inputDim)
	for _, h := range hidden {
		if h <= 0 {
			return nil, fmt.Errorf("model: invalid hidden width %d", h)
		}
		dims = append(dims, h)
	}
	dims = append(dims, classes)
	src := randx.New(seed)
	m := &MLP{dims: dims}
	for l := 0; l+1 < len(dims); l++ {
		w := tensor.New(dims[l], dims[l+1])
		w.RandomizeXavier(src)
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, tensor.New(1, dims[l+1]))
	}
	return m, nil
}

// Clone returns a deep copy (used to broadcast the global model).
func (m *MLP) Clone() *MLP {
	out := &MLP{dims: append([]int(nil), m.dims...)}
	for l := range m.weights {
		out.weights = append(out.weights, m.weights[l].Clone())
		out.biases = append(out.biases, m.biases[l].Clone())
	}
	return out
}

// Params returns flattened views of all parameters (weights then biases,
// layer by layer); mutating them mutates the model. Used by FedAvg.
func (m *MLP) Params() []*tensor.Matrix {
	out := make([]*tensor.Matrix, 0, 2*len(m.weights))
	for l := range m.weights {
		out = append(out, m.weights[l], m.biases[l])
	}
	return out
}

// SetParams copies src parameter values into m.
func (m *MLP) SetParams(src []*tensor.Matrix) error {
	dst := m.Params()
	if len(dst) != len(src) {
		return errors.New("model: parameter count mismatch")
	}
	for i := range dst {
		if err := dst[i].CopyFrom(src[i]); err != nil {
			return fmt.Errorf("param %d: %w", i, err)
		}
	}
	return nil
}

// forward runs the network on x, returning the activations of every layer
// (acts[0] = x, acts[last] = logits). Activations beyond acts[0] come from
// the tensor pool; callers release them with releaseActs when done.
func (m *MLP) forward(x *tensor.Matrix) ([]*tensor.Matrix, error) {
	acts := make([]*tensor.Matrix, 0, len(m.weights)+1)
	acts = append(acts, x)
	cur := x
	for l := range m.weights {
		next := tensor.Get(cur.Rows, m.weights[l].Cols)
		if err := tensor.MatMul(next, cur, m.weights[l]); err != nil {
			return nil, err
		}
		if err := next.AddRowVector(m.biases[l]); err != nil {
			return nil, err
		}
		if l+1 < len(m.weights) {
			next.ReLU()
		}
		acts = append(acts, next)
		cur = next
	}
	return acts, nil
}

// releaseActs returns the pooled activations (all but acts[0], which is the
// caller's input) to the tensor pool.
func releaseActs(acts []*tensor.Matrix) {
	for _, a := range acts[1:] {
		tensor.Put(a)
	}
}

// Loss returns the mean cross-entropy of the model on d (Eq. 1).
func (m *MLP) Loss(d *dataset.Dataset) (float64, error) {
	acts, err := m.forward(d.X)
	if err != nil {
		return 0, err
	}
	defer releaseActs(acts)
	logits := acts[len(acts)-1]
	probs := tensor.Get(logits.Rows, logits.Cols)
	defer tensor.Put(probs)
	return tensor.SoftmaxCrossEntropy(probs, logits, d.Y)
}

// Accuracy returns the top-1 accuracy of the model on d.
func (m *MLP) Accuracy(d *dataset.Dataset) (float64, error) {
	acts, err := m.forward(d.X)
	if err != nil {
		return 0, err
	}
	defer releaseActs(acts)
	pred := acts[len(acts)-1].ArgmaxRows()
	var hit int
	for i, p := range pred {
		if p == d.Y[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(pred)), nil
}

// TrainEpochs runs SGD for the given number of epochs over d with the arch
// hyperparameters, returning the final epoch's mean training loss.
func (m *MLP) TrainEpochs(d *dataset.Dataset, epochs int, lr float64, batch int) (float64, error) {
	if epochs <= 0 {
		return 0, errors.New("model: epochs must be positive")
	}
	if lr <= 0 {
		return 0, errors.New("model: learning rate must be positive")
	}
	if batch <= 0 {
		batch = 32
	}
	var last float64
	for e := 0; e < epochs; e++ {
		var epochLoss float64
		var batches int
		for lo := 0; lo < d.Len(); lo += batch {
			hi := lo + batch
			if hi > d.Len() {
				hi = d.Len()
			}
			x, err := d.X.RowSlice(lo, hi)
			if err != nil {
				return 0, err
			}
			loss, err := m.step(x, d.Y[lo:hi], lr)
			if err != nil {
				return 0, err
			}
			epochLoss += loss
			batches++
		}
		last = epochLoss / float64(batches)
	}
	return last, nil
}

// step performs one SGD update on a mini-batch and returns its loss. All
// intermediates (activations, softmax buffer, per-layer gradients) cycle
// through the tensor pool, so steady-state training steps allocate nothing.
func (m *MLP) step(x *tensor.Matrix, y []int, lr float64) (float64, error) {
	acts, err := m.forward(x)
	if err != nil {
		return 0, err
	}
	defer releaseActs(acts)
	logits := acts[len(acts)-1]
	probs := tensor.Get(logits.Rows, logits.Cols)
	loss, err := tensor.SoftmaxCrossEntropy(probs, logits, y)
	if err != nil {
		tensor.Put(probs)
		return 0, err
	}
	grad := probs // reuse buffer: grad aliases probs
	if err := tensor.SoftmaxCrossEntropyGrad(grad, probs, y); err != nil {
		tensor.Put(probs)
		return 0, err
	}
	// Backpropagate layer by layer.
	for l := len(m.weights) - 1; l >= 0; l-- {
		in := acts[l]
		gw := tensor.Get(m.weights[l].Rows, m.weights[l].Cols)
		gb := tensor.Get(1, m.biases[l].Cols)
		var gin *tensor.Matrix
		release := func() {
			tensor.Put(gw)
			tensor.Put(gb)
			tensor.Put(gin)
			tensor.Put(grad)
		}
		if err := tensor.MatMulATB(gw, in, grad); err != nil {
			release()
			return 0, err
		}
		if err := tensor.ColumnSums(gb, grad); err != nil {
			release()
			return 0, err
		}
		if l > 0 {
			gin = tensor.Get(grad.Rows, m.weights[l].Rows)
			if err := tensor.MatMulABT(gin, grad, m.weights[l]); err != nil {
				release()
				return 0, err
			}
			if err := tensor.ReLUBackward(gin, acts[l]); err != nil {
				release()
				return 0, err
			}
		}
		if err := m.weights[l].AXPY(-lr, gw); err != nil {
			release()
			return 0, err
		}
		if err := m.biases[l].AXPY(-lr, gb); err != nil {
			release()
			return 0, err
		}
		tensor.Put(gw)
		tensor.Put(gb)
		tensor.Put(grad)
		grad = gin
	}
	return loss, nil
}
