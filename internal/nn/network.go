package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"

	"iprune/internal/pool"
	"iprune/internal/tensor"
)

// Network is an ordered stack of layers with a softmax cross-entropy head.
type Network struct {
	Name    string
	Classes int
	Layers  []Layer

	probs []float64      // LossBackward's softmax scratch
	grad  *tensor.Tensor // LossBackward's dL/dlogits
}

// NewNetwork constructs an empty network.
func NewNetwork(name string, classes int) *Network {
	return &Network{Name: name, Classes: classes}
}

// Add appends a layer and returns the network for chaining.
func (n *Network) Add(l Layer) *Network {
	n.Layers = append(n.Layers, l)
	return n
}

// Forward runs a single sample through all layers and returns the
// logits. Like every layer output (see Layer), the logits belong to the
// last layer: they stay valid until the network's next Forward, Predict
// or LossBackward, and one network serves one goroutine at a time.
func (n *Network) Forward(in *tensor.Tensor) *tensor.Tensor {
	x := in
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Softmax converts logits to probabilities (numerically stable).
func Softmax(logits []float32) []float64 {
	return softmaxInto(make([]float64, len(logits)), logits)
}

// softmaxInto is Softmax writing into probs, which has len(logits).
func softmaxInto(probs []float64, logits []float32) []float64 {
	maxv := float64(logits[0])
	for _, v := range logits[1:] {
		if float64(v) > maxv {
			maxv = float64(v)
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(float64(v) - maxv)
		probs[i] = e
		sum += e
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

// LossBackward computes softmax cross-entropy loss against the label and
// backpropagates, accumulating parameter gradients. Returns the loss.
func (n *Network) LossBackward(in *tensor.Tensor, label int) float64 {
	logits := n.Forward(in)
	if len(n.probs) != len(logits.Data) {
		n.probs = make([]float64, len(logits.Data))
	}
	probs := softmaxInto(n.probs, logits.Data)
	loss := -math.Log(math.Max(probs[label], 1e-12))
	g := reuse(&n.grad, len(logits.Data))
	for i, p := range probs {
		g.Data[i] = float32(p)
	}
	g.Data[label] -= 1
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g)
	}
	return loss
}

// Predict returns the argmax class for a sample.
func (n *Network) Predict(in *tensor.Tensor) int {
	logits := n.Forward(in)
	best, bestIdx := logits.Data[0], 0
	for i, v := range logits.Data[1:] {
		if v > best {
			best, bestIdx = v, i+1
		}
	}
	return bestIdx
}

// ZeroGrads clears every parameter gradient.
func (n *Network) ZeroGrads() {
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			p.ZeroGrad()
		}
	}
}

// Walk visits every layer depth-first in network order, descending into
// multi-path containers. All traversals that must agree on layer order
// (prunable enumeration, spec lowering, mask installation) go through it.
func Walk(layers []Layer, fn func(Layer)) {
	for _, l := range layers {
		fn(l)
		if c, ok := l.(Container); ok {
			Walk(c.Sublayers(), fn)
		}
	}
}

// ApplyMasks re-zeroes pruned blocks in every prunable layer; called after
// each optimizer step so fine-tuning cannot resurrect pruned weights.
func (n *Network) ApplyMasks() {
	for _, p := range n.Prunables() {
		p.ApplyMask()
	}
}

// Prunables returns the prunable layers in network order, including those
// nested inside multi-path branches.
func (n *Network) Prunables() []Prunable {
	var out []Prunable
	Walk(n.Layers, func(l Layer) {
		if p, ok := l.(Prunable); ok {
			out = append(out, p)
		}
	})
	return out
}

// TotalWeights returns the number of weight elements in prunable layers
// that are still unpruned (bias parameters excluded, as in the paper's
// weight counts).
func (n *Network) TotalWeights() int {
	total := 0
	for _, p := range n.Prunables() {
		if m := p.Mask(); m != nil {
			total += m.KeptWeights()
		} else {
			_, r, c := p.WeightMatrix()
			total += r * c
		}
	}
	return total
}

// Clone deep-copies the network including masks.
func (n *Network) Clone() *Network {
	c := NewNetwork(n.Name, n.Classes)
	for _, l := range n.Layers {
		c.Add(l.Clone())
	}
	return c
}

// params returns every parameter of n in layer order.
func (n *Network) params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// replica returns a worker's copy of n for a data-parallel pass. It
// shares every Param.Data slice with n, so it always computes with n's
// current weights, but owns its gradients, masks and layer buffers. n's
// weights must not change while a replica runs.
func (n *Network) replica() *Network {
	r := n.Clone()
	src := n.params()
	for i, p := range r.params() {
		p.Data = src[i].Data
	}
	return r
}

// LayerCounts returns a map of layer-kind name to count, for Table II
// style reporting (activation and flatten layers are bookkeeping, not
// counted by the paper).
func (n *Network) LayerCounts() map[string]int {
	counts := map[string]int{}
	Walk(n.Layers, func(l Layer) {
		switch l.Kind() {
		case KindConv, KindFC, KindPool:
			counts[l.Kind().String()]++
		}
	})
	return counts
}

// ---------------------------------------------------------------------------
// SGD

// SGD is stochastic gradient descent with classical momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vel      map[*Param][]float32
}

// NewSGD constructs an optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, vel: map[*Param][]float32{}}
}

// Step applies one update using gradients accumulated over batchSize
// samples, then re-applies pruning masks.
func (s *SGD) Step(n *Network, batchSize int) {
	if batchSize <= 0 {
		panic(fmt.Sprintf("nn: bad batch size %d", batchSize))
	}
	scale := float32(s.LR / float64(batchSize))
	mom := float32(s.Momentum)
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			v := s.vel[p]
			if v == nil {
				v = make([]float32, len(p.Data))
				s.vel[p] = v
			}
			for i := range p.Data {
				v[i] = float32(mom*v[i]) - float32(scale*p.Grad[i])
				p.Data[i] += v[i]
			}
		}
	}
	n.ApplyMasks()
}

// ---------------------------------------------------------------------------
// Training and evaluation helpers

// Sample is one labelled training/evaluation example.
type Sample struct {
	X     *tensor.Tensor
	Label int
}

// TrainEpoch runs one epoch of minibatch SGD over samples (shuffled with
// rng) and returns the mean loss. Each batch's samples are spread over
// GOMAXPROCS goroutines; the weights and loss are bit-identical at any
// width (see epoch).
func TrainEpoch(n *Network, samples []Sample, opt *SGD, batch int, rng *rand.Rand) float64 {
	return epoch(n, samples, batch, rng, opt.Step, runtime.GOMAXPROCS(0))
}

// epoch runs one epoch of minibatch training over samples in rng.Perm
// order, calling step after each batch, and returns the mean loss.
//
// The samples of a batch run on up to workers replicas of n. Sample s
// of the batch leaves its gradient in slot s, and the slots are added
// into n's zeroed gradients, as the losses into the total, in sample
// order. A sequential pass on n also gives every parameter exactly one
// rounded addition per sample (the Layer contract), so both perform the
// same additions on the same values in the same order, and the result
// is bit-identical at any width.
func epoch(n *Network, samples []Sample, batch int, rng interface{ Perm(int) []int }, step func(*Network, int), workers int) float64 {
	if batch <= 0 {
		batch = 16
	}
	idx := rng.Perm(len(samples))
	slots := newGradSlots(n, max(1, min(workers, batch, len(idx))), min(batch, len(idx)))
	var total float64
	for start := 0; start < len(idx); start += batch {
		end := min(start+batch, len(idx))
		n.ZeroGrads()
		for _, loss := range slots.run(samples, idx[start:end]) {
			total += loss
		}
		step(n, end-start)
	}
	return total / float64(len(samples))
}

// gradSlots runs the samples of one batch at a time on replicas of a
// network, each sample's gradient into a slot of its own.
type gradSlots struct {
	dst    []*Param // the network's parameters in layer order
	reps   []*Network
	params [][]*Param // params[k] are reps[k]'s parameters in layer order
	size   int        // parameter elements per slot
	slots  []float32  // batch slots of size elements each
	losses []float64
}

// newGradSlots prepares workers replicas of n and slots for batches of
// up to batch samples.
func newGradSlots(n *Network, workers, batch int) *gradSlots {
	g := &gradSlots{dst: n.params(), losses: make([]float64, batch)}
	for _, p := range g.dst {
		g.size += len(p.Data)
	}
	g.slots = make([]float32, batch*g.size)
	for range workers {
		r := n.replica()
		g.reps = append(g.reps, r)
		g.params = append(g.params, r.params())
	}
	return g
}

// run computes the loss and gradient of samples[i] for every i in
// batch, adds the gradients into the network's parameters in batch
// order and returns the losses in batch order. Each replica draws the
// next unstarted sample until none is left.
func (g *gradSlots) run(samples []Sample, batch []int) []float64 {
	var next atomic.Int64
	tasks := min(len(g.reps), len(batch))
	_ = pool.Run(context.Background(), tasks, tasks, func(k int) {
		for s := int(next.Add(1) - 1); s < len(batch); s = int(next.Add(1) - 1) {
			slot := g.slots[s*g.size : (s+1)*g.size]
			clear(slot)
			for _, p := range g.params[k] {
				p.Grad, slot = slot[:len(p.Data)], slot[len(p.Data):]
			}
			x := samples[batch[s]]
			g.losses[s] = g.reps[k].LossBackward(x.X, x.Label)
		}
	}) // a Background context never cancels
	for s := range batch {
		slot := g.slots[s*g.size : (s+1)*g.size]
		for _, p := range g.dst {
			for j, v := range slot[:len(p.Grad)] {
				p.Grad[j] += v
			}
			slot = slot[len(p.Grad):]
		}
	}
	return g.losses[:len(batch)]
}

// Predictor makes the classifier of one Evaluate worker: called once per
// worker with the network that worker owns, it returns that worker's
// predict function, which may keep scratch of its own.
type Predictor func(*Network) func(*tensor.Tensor) int

// Accuracy evaluates top-1 accuracy over the samples, spread over
// GOMAXPROCS goroutines.
func Accuracy(n *Network, samples []Sample) float64 {
	return Evaluate(n, samples, runtime.GOMAXPROCS(0), func(r *Network) func(*tensor.Tensor) int { return r.Predict })
}

// Evaluate returns the fraction of samples whose predicted class is
// their label, or 0 for no samples. The samples are spread over up to
// workers goroutines: the first predicts on n, each other on a replica
// of n, drawing the next unstarted sample until none is left. The
// correct predictions are counted as integers, so the result does not
// depend on workers.
func Evaluate(n *Network, samples []Sample, workers int, predict Predictor) float64 {
	if len(samples) == 0 {
		return 0
	}
	nets := []*Network{n}
	for len(nets) < min(workers, len(samples)) {
		nets = append(nets, n.replica())
	}
	correct := make([]int, len(nets))
	var next atomic.Int64
	_ = pool.Run(context.Background(), len(nets), len(nets), func(k int) {
		p := predict(nets[k])
		for i := int(next.Add(1) - 1); i < len(samples); i = int(next.Add(1) - 1) {
			if p(samples[i].X) == samples[i].Label {
				correct[k]++
			}
		}
	}) // a Background context never cancels
	total := 0
	for _, c := range correct {
		total += c
	}
	return float64(total) / float64(len(samples))
}
