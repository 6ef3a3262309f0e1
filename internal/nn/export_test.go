package nn

import "math/rand"

// Hooks for the external tests in package nn_test, which build the
// models package's networks and so cannot live in package nn.

// FireNet is the branch network of the Branch tests.
var FireNet = fireNet

// TrainEpochWidth is TrainEpoch at an explicit fan-out width.
func TrainEpochWidth(n *Network, samples []Sample, opt *SGD, batch int, rng *rand.Rand, workers int) float64 {
	return epoch(n, samples, batch, rng, opt.Step, workers)
}

// TrainEpochAdamWidth is TrainEpochAdam at an explicit fan-out width.
func TrainEpochAdamWidth(n *Network, samples []Sample, opt *Adam, batch int, rng *rand.Rand, workers int) float64 {
	return epoch(n, samples, batch, rng, opt.Step, workers)
}
