// Package nn is a from-scratch neural-network library sized for the models
// in "Predictive Analysis in Network Function Virtualization" (IMC 2018):
// stacked LSTM next-template language models trained with BPTT and softmax
// cross-entropy, dense feed-forward autoencoders trained with MSE, the Adam
// optimizer with gradient clipping, weight serialization, and the
// teacher→student transfer-learning mechanics (deep copy + layer freezing)
// the paper uses to recover from NFV system updates with one week of data.
//
// The package substitutes for the paper's Keras/TensorFlow stack (see
// DESIGN.md §2): no external dependencies, deterministic given a seed, and
// fast enough at the paper's scale (vocabulary ~10² templates, 2 LSTM
// layers + 1 dense layer) to run full 18-month walk-forward evaluations in
// test and benchmark time.
package nn

import "math"

// Activation identifies an element-wise activation function.
type Activation int

// Supported activations.
const (
	// Identity is the linear activation f(x) = x.
	Identity Activation = iota
	// Sigmoid is the logistic function 1/(1+e^-x).
	Sigmoid
	// Tanh is the hyperbolic tangent.
	Tanh
	// ReLU is max(0, x).
	ReLU
)

// String returns the activation's name.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	default:
		return "unknown"
	}
}

// Apply returns f(x) for the activation.
func (a Activation) Apply(x float64) float64 {
	switch a {
	case Sigmoid:
		return sigmoid(x)
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// DerivFromOutput returns f'(x) expressed in terms of y = f(x). All four
// supported activations admit this form, which lets backprop reuse cached
// forward outputs instead of re-evaluating the activation.
func (a Activation) DerivFromOutput(y float64) float64 {
	switch a {
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// sigmoid computes the logistic function with guard rails against overflow
// in exp for very large |x|.
func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
