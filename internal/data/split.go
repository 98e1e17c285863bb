package data

import (
	"fmt"

	"mllibstar/internal/detrand"
	"mllibstar/internal/glm"
)

// Split partitions the dataset into a training and a test set, with
// testFraction of the examples (rounded down, at least one of each when
// possible) going to the test set. The split is a deterministic shuffle by
// seed; examples are shared, not copied.
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
	perm := detrand.Perm(seed, n)
	testEx := make([]glm.Example, 0, nTest)
	trainEx := make([]glm.Example, 0, n-nTest)
	for i, j := range perm {
		if i < nTest {
			testEx = append(testEx, d.Examples[j])
		} else {
			trainEx = append(trainEx, d.Examples[j])
		}
	}
	train = &Dataset{Name: d.Name + "-train", Features: d.Features, Examples: trainEx}
	test = &Dataset{Name: d.Name + "-test", Features: d.Features, Examples: testEx}
	return train, test, nil
}

// Fold describes one cross-validation fold.
type Fold struct {
	Train *Dataset
	Test  *Dataset
}

// KFold returns k cross-validation folds over a deterministic shuffle:
// fold i's test set is the i-th contiguous slice of the shuffled examples
// and its training set is everything else.
func (d *Dataset) KFold(k int, seed int64) ([]Fold, error) {
	n := len(d.Examples)
	if k < 2 || k > n {
		return nil, fmt.Errorf("data: k=%d folds over %d examples", k, n)
	}
	perm := detrand.Perm(seed, n)
	shuffled := make([]glm.Example, n)
	for i, j := range perm {
		shuffled[i] = d.Examples[j]
	}
	folds := make([]Fold, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		test := shuffled[lo:hi]
		train := make([]glm.Example, 0, n-len(test))
		train = append(train, shuffled[:lo]...)
		train = append(train, shuffled[hi:]...)
		folds[i] = Fold{
			Train: &Dataset{Name: fmt.Sprintf("%s-fold%d-train", d.Name, i), Features: d.Features, Examples: train},
			Test:  &Dataset{Name: fmt.Sprintf("%s-fold%d-test", d.Name, i), Features: d.Features, Examples: test},
		}
	}
	return folds, nil
}
