package model

import (
	"math"
	"testing"

	"tradefl/internal/fl/dataset"
)

func trainingSet(t *testing.T, name string, n int) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	spec, err := dataset.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataset.NewGenerator(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	train, err := g.Sample(n)
	if err != nil {
		t.Fatal(err)
	}
	test, err := g.Sample(500)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestRegistryNamesAndOrdering(t *testing.T) {
	archs := Registry()
	if len(archs) != 4 {
		t.Fatalf("got %d archs, want 4", len(archs))
	}
	capacity := func(a Arch) int {
		total := 0
		for _, h := range a.Hidden {
			total += h
		}
		return total
	}
	byName := map[string]Arch{}
	for _, a := range archs {
		byName[a.Name] = a
		if a.LearningRate <= 0 || a.BatchSize <= 0 {
			t.Errorf("%s: bad hyperparameters %+v", a.Name, a)
		}
	}
	if capacity(byName["resnet18"]) <= capacity(byName["mobilenet"]) {
		t.Error("resnet18 should have more capacity than mobilenet")
	}
}

func TestArchByName(t *testing.T) {
	if _, err := ArchByName("vgg"); err == nil {
		t.Error("accepted unknown architecture")
	}
	a, err := ArchByName("mobilenet")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "mobilenet" {
		t.Errorf("got %q", a.Name)
	}
}

func TestNewMLPValidation(t *testing.T) {
	if _, err := NewMLP(0, 10, nil, 1); err == nil {
		t.Error("accepted zero input dim")
	}
	if _, err := NewMLP(4, 1, nil, 1); err == nil {
		t.Error("accepted single class")
	}
	if _, err := NewMLP(4, 10, []int{0}, 1); err == nil {
		t.Error("accepted zero hidden width")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	train, _ := trainingSet(t, "fmnist", 400)
	m, err := NewMLP(train.Dim(), train.Classes, []int{24}, 1)
	if err != nil {
		t.Fatal(err)
	}
	before, err := m.Loss(train)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainEpochs(train, 10, 0.1, 32); err != nil {
		t.Fatal(err)
	}
	after, err := m.Loss(train)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("loss did not decrease: %v -> %v", before, after)
	}
}

func TestTrainingBeatsChanceAccuracy(t *testing.T) {
	train, test := trainingSet(t, "fmnist", 800)
	m, err := NewMLP(train.Dim(), train.Classes, []int{32}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainEpochs(train, 20, 0.1, 32); err != nil {
		t.Fatal(err)
	}
	acc, err := m.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.4 {
		t.Errorf("test accuracy %v, want well above 0.1 chance", acc)
	}
}

func TestTrainEpochsValidation(t *testing.T) {
	train, _ := trainingSet(t, "fmnist", 50)
	m, _ := NewMLP(train.Dim(), train.Classes, nil, 1)
	if _, err := m.TrainEpochs(train, 0, 0.1, 32); err == nil {
		t.Error("accepted zero epochs")
	}
	if _, err := m.TrainEpochs(train, 1, 0, 32); err == nil {
		t.Error("accepted zero learning rate")
	}
	if _, err := m.TrainEpochs(train, 1, 0.1, 0); err != nil {
		t.Errorf("zero batch should default, got %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	train, _ := trainingSet(t, "svhn", 100)
	m, _ := NewMLP(train.Dim(), train.Classes, []int{8}, 3)
	c := m.Clone()
	if _, err := c.TrainEpochs(train, 2, 0.1, 16); err != nil {
		t.Fatal(err)
	}
	lm, _ := m.Loss(train)
	lc, _ := c.Loss(train)
	if lm == lc {
		t.Error("training the clone changed (or matched) the original exactly")
	}
}

func TestParamsRoundTrip(t *testing.T) {
	train, _ := trainingSet(t, "eurosat", 60)
	a, _ := NewMLP(train.Dim(), train.Classes, []int{8}, 4)
	b, _ := NewMLP(train.Dim(), train.Classes, []int{8}, 5)
	la, _ := a.Loss(train)
	if err := b.SetParams(a.Params()); err != nil {
		t.Fatal(err)
	}
	lb, _ := b.Loss(train)
	if math.Abs(la-lb) > 1e-12 {
		t.Errorf("SetParams did not copy: %v vs %v", la, lb)
	}
	wrong, _ := NewMLP(train.Dim(), train.Classes, []int{16}, 6)
	if err := b.SetParams(wrong.Params()); err == nil {
		t.Error("SetParams accepted mismatched shapes")
	}
	small, _ := NewMLP(train.Dim(), train.Classes, nil, 6)
	if err := b.SetParams(small.Params()); err == nil {
		t.Error("SetParams accepted wrong layer count")
	}
}

func TestDeterministicTraining(t *testing.T) {
	train, _ := trainingSet(t, "cifar10", 100)
	run := func() float64 {
		m, _ := NewMLP(train.Dim(), train.Classes, []int{8}, 9)
		l, _ := m.TrainEpochs(train, 3, 0.1, 16)
		return l
	}
	if run() != run() {
		t.Error("training is not deterministic")
	}
}

func TestLayersCount(t *testing.T) {
	m, _ := NewMLP(4, 3, []int{8, 8}, 1)
	if got := len(m.weights); got != 3 {
		t.Errorf("weight layers = %d, want 3", got)
	}
	if got := len(m.Params()); got != 6 {
		t.Errorf("Params count = %d, want 6", got)
	}
}

func TestLargerCapacityFitsBetter(t *testing.T) {
	// On the same data budget, resnet18-sized nets should fit the training
	// set at least as well as mobilenet-sized ones.
	train, _ := trainingSet(t, "cifar10", 600)
	big, _ := NewMLP(train.Dim(), train.Classes, []int{64, 64}, 7)
	small, _ := NewMLP(train.Dim(), train.Classes, []int{24}, 7)
	if _, err := big.TrainEpochs(train, 15, 0.1, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := small.TrainEpochs(train, 15, 0.1, 32); err != nil {
		t.Fatal(err)
	}
	lb, _ := big.Loss(train)
	ls, _ := small.Loss(train)
	if lb > ls+0.05 {
		t.Errorf("big net train loss %v worse than small %v", lb, ls)
	}
}
