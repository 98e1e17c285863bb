package data

import (
	"fmt"
	"slices"

	"mllibstar/internal/detrand"
)

// Split partitions the dataset into a training and a test set, with
// testFraction of the examples (rounded down, at least one of each when
// possible) going to the test set. The split is a deterministic shuffle by
// seed; each side is gathered from the dataset's arena into its own.
func (d *Dataset) Split(testFraction float64, seed int64) (train, test *Dataset, err error) {
	if testFraction <= 0 || testFraction >= 1 {
		return nil, nil, fmt.Errorf("data: test fraction %g out of (0,1)", testFraction)
	}
	n := len(d.Examples)
	if n < 2 {
		return nil, nil, fmt.Errorf("data: cannot split %d examples", n)
	}
	nTest := int(testFraction * float64(n))
	if nTest == 0 {
		nTest = 1
	}
	if nTest == n {
		nTest = n - 1
	}
	perm, c := detrand.Perm(seed, n), d.View().c
	train = inArena(d.Name+"-train", d.Features, gather(c, perm[nTest:]))
	test = inArena(d.Name+"-test", d.Features, gather(c, perm[:nTest]))
	return train, test, nil
}

// Fold describes one cross-validation fold.
type Fold struct {
	Train *Dataset
	Test  *Dataset
}

// KFold returns k cross-validation folds over a deterministic shuffle:
// fold i's test set is the i-th contiguous slice of the shuffled rows and
// its training set is everything else, each gathered into its own arena.
func (d *Dataset) KFold(k int, seed int64) ([]Fold, error) {
	n := len(d.Examples)
	if k < 2 || k > n {
		return nil, fmt.Errorf("data: k=%d folds over %d examples", k, n)
	}
	perm, c := detrand.Perm(seed, n), d.View().c
	folds := make([]Fold, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		train := append(slices.Clip(perm[:lo]), perm[hi:]...)
		folds[i] = Fold{
			Train: inArena(fmt.Sprintf("%s-fold%d-train", d.Name, i), d.Features, gather(c, train)),
			Test:  inArena(fmt.Sprintf("%s-fold%d-test", d.Name, i), d.Features, gather(c, perm[lo:hi])),
		}
	}
	return folds, nil
}
