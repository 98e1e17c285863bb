package data

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteLibSVM writes the dataset in libsvm text format: one example per
// line, "label index:value ...", with 1-based feature indices as the format
// prescribes (in-memory indices are 0-based). It writes the rows of the
// dataset's View.
func WriteLibSVM(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	v := d.View()
	for i := 0; i < v.NumRows(); i++ {
		e := v.Example(i)
		if _, err := fmt.Fprintf(bw, "%g", e.Label); err != nil {
			return err
		}
		for j, ix := range e.X.Ind {
			if _, err := fmt.Fprintf(bw, " %d:%g", ix+1, e.X.Val[j]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLibSVM parses libsvm text into a dataset. Labels "1"/"+1" map to +1
// and "0"/"-1" to -1 (both labelling conventions appear in the public
// datasets the paper uses). Feature indices are 1-based in the file and
// converted to 0-based; within a row they must be strictly ascending, and
// the reader distinguishes the two malformations — a duplicate index and a
// descending index — in its errors, since they have different causes
// (double-emitted feature vs. unsorted writer) and both would corrupt the
// dot-product kernels if let through. A label or value that is NaN or
// infinite is an error too: strconv.ParseFloat accepts "nan" and "inf", and a
// NaN margin has a hinge loss of 0, so such a row would train silently to
// nothing. Blank lines and lines starting with '#' are skipped.
//
// Rows are parsed straight into one CSR arena (see CSR): feature indices
// and values append to two shared slabs, so loading allocates per slab
// growth, not per row, and the dataset keeps the arena as its View, as
// Generate's does; its Examples are views carved out of the slabs at the end.
func ReadLibSVM(r io.Reader, name string) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	features := 0
	var (
		ind    []int32
		val    []float64
		rowPtr = []int{0}
		labels []float64
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		label, err := parseLabel(fields[0])
		if err != nil {
			return nil, fmt.Errorf("data: line %d: %v", lineNo, err)
		}
		prev := 0 // last 1-based index seen in this row; valid ones are ≥ 1
		for _, f := range fields[1:] {
			colon := strings.IndexByte(f, ':')
			if colon < 0 {
				return nil, fmt.Errorf("data: line %d: malformed feature %q", lineNo, f)
			}
			ix, err := strconv.Atoi(f[:colon])
			if err != nil || ix < 1 {
				return nil, fmt.Errorf("data: line %d: bad index %q", lineNo, f[:colon])
			}
			if ix == prev {
				return nil, fmt.Errorf("data: line %d: duplicate feature index %d", lineNo, ix)
			}
			if ix < prev {
				return nil, fmt.Errorf("data: line %d: descending feature index %d after %d", lineNo, ix, prev)
			}
			prev = ix
			v, err := strconv.ParseFloat(f[colon+1:], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("data: line %d: bad value %q", lineNo, f[colon+1:])
			}
			ind = append(ind, int32(ix-1))
			val = append(val, v)
		}
		features = max(features, prev)
		labels = append(labels, label)
		rowPtr = append(rowPtr, len(ind))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("data: reading libsvm: %w", err)
	}
	return inArena(name, features, newCSR(rowPtr, ind, val, labels)), nil
}

func parseLabel(s string) (float64, error) {
	switch s {
	case "1", "+1", "1.0", "+1.0":
		return 1, nil
	case "0", "-1", "0.0", "-1.0":
		return -1, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad label %q", s)
	}
	if v > 0 {
		return 1, nil
	}
	return -1, nil
}
