package nn

import "nfvpredict/internal/mat"

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing the gradient into
// dst (length len(logits)), avoiding the per-timestep allocation on the
// training hot path.
func SoftmaxCrossEntropyInto(dst, logits mat.Vector, target int) (loss float64) {
	if target < 0 || target >= len(logits) {
		panic("nn: SoftmaxCrossEntropy target out of range")
	}
	// One set of exponentials gives both the softmax and, bit for bit,
	// the LogSumExp that LogSoftmaxInto scores with.
	loss = mat.SoftmaxInto(dst, logits) - logits[target]
	dst[target] -= 1
	return loss
}

// LogSoftmaxInto is LogSoftmax writing into dst (length len(logits)); dst
// may alias logits.
func LogSoftmaxInto(dst, logits mat.Vector) mat.Vector {
	lse := mat.LogSumExp(logits)
	for i, x := range logits {
		dst[i] = x - lse
	}
	return dst
}

// MSE returns the mean squared error ½·mean((y−target)²) and ∂loss/∂y.
// The ½ keeps the gradient free of a factor of 2, matching the classic
// autoencoder reconstruction objective.
func MSE(y, target mat.Vector) (loss float64, dy mat.Vector) {
	dy = make(mat.Vector, len(y))
	return MSEInto(dy, y, target), dy
}

// MSEInto is MSE writing the gradient into dst (length len(y)).
func MSEInto(dst, y, target mat.Vector) (loss float64) {
	if len(y) != len(target) {
		panic("nn: MSE length mismatch")
	}
	n := float64(len(y))
	for i := range y {
		d := y[i] - target[i]
		loss += d * d
		dst[i] = d / n
	}
	return loss / (2 * n)
}
