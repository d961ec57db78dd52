package detect

import "nfvpredict/internal/features"

// StreamBatch and PushBatch are kept solely because bench/layers.go calls
// them, and nothing under bench/ may change in a PR the benchmark judges.
// The [benchmark] PR that retires detect.pushbatch_ns_per_lane and
// detect.lanes_per_batch deletes this file.
type StreamBatch struct{}

// PushBatch sets scores[b] = streams[b].Push(events[b]) for every b.
func PushBatch(_ *StreamBatch, streams []*LSTMStream, events []features.Event, scores []float64) {
	for b, s := range streams {
		scores[b] = s.Push(events[b])
	}
}
