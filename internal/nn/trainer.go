package nn

// BatchTrainer runs TrainWindow over a batch of windows in order, applying
// one optimizer step after every window that produced a loss: strict
// per-window SGD, gradients computed directly on the model.
type BatchTrainer struct {
	model  *SequenceModel
	opt    Optimizer
	params []*Param
}

// NewBatchTrainer wraps model and opt.
func NewBatchTrainer(model *SequenceModel, opt Optimizer) *BatchTrainer {
	return &BatchTrainer{model: model, opt: opt, params: model.Params()}
}

// Train runs one pass over windows in order and returns the total loss.
// Windows too short to train on (TrainWindow returns 0) take no step.
func (bt *BatchTrainer) Train(windows [][]Token) float64 {
	var total float64
	for _, w := range windows {
		loss := bt.model.TrainWindow(w)
		if loss > 0 {
			bt.opt.Step(bt.params)
		}
		total += loss
	}
	return total
}
