package server

import (
	"errors"
	"testing"

	"vsensor/internal/feed"
)

// Property: InterProcessOutliers is invariant under frame arrival order.
// Whatever permutation the transport delivers a run's frames in, the
// analysis must produce the identical outlier list — the guarantee that lets
// a lossy, reordering link feed the same analysis as a reliable one.
func TestOutliersReorderInvariance(t *testing.T) {
	sp := feed.Spec{
		Seed: 42, Step: 1, Trials: 25,
		Ranks: [2]int{2, 10}, Sensors: [2]int{1, 4}, Slices: [2]int{1, 5},
		Events: map[feed.Kind][]float64{feed.Shuffle: {1}},
	}
	feed.Run(t, sp, func(t *testing.T, tr feed.Trial) error {
		inOrder, shuffled := New(), New()
		deliverAll(inOrder, feed.Trial{Seed: tr.Seed, Shape: tr.Shape})
		deliverAll(shuffled, tr)
		return errors.Join(tr.ExactlyOnce(shuffled.Records()),
			feed.Same("outlier", shuffled.InterProcessOutliers(0.8), inOrder.InterProcessOutliers(0.8)))
	})
}
