package main

import (
	"context"
	"fmt"

	sip "repro"
)

// answer identifies a result by its row count and an order-insensitive
// hash of its rows.
type answer struct {
	rows int
	hash uint64
}

// floatDigits is the precision rows are compared at: parallel plans sum
// floats in varying order, so the last bits of an aggregate differ between
// strategies while nine significant digits do not.
const floatDigits = 9

// rowHasher folds rows into an order-insensitive hash: each row is hashed
// on its own (FNV-1a over sip.FormatValueRounded fields) and the row hashes
// are added, so any delivery order gives the same sum.
type rowHasher struct {
	a   answer
	buf []byte
}

func (h *rowHasher) add(row sip.Row) {
	h.buf = h.buf[:0]
	for _, v := range row {
		h.buf = append(h.buf, sip.FormatValueRounded(v, floatDigits)...)
		h.buf = append(h.buf, 0)
	}
	sum := uint64(14695981039346656037) // FNV-1a, inline to stay allocation-free
	for _, b := range h.buf {
		sum = (sum ^ uint64(b)) * 1099511628211
	}
	h.a.hash += sum
	h.a.rows++
}

// reference computes the answer of one request in process under Baseline
// with Parallelism 1, the engine's plainest configuration.
func reference(ctx context.Context, eng *sip.Engine, r request) (answer, error) {
	res, err := eng.Query(ctx, r.sql, sip.Options{Strategy: sip.Baseline, Parallelism: 1})
	if err != nil {
		return answer{}, fmt.Errorf("reference %s: %w", r.ref, err)
	}
	var h rowHasher
	for _, row := range res.Rows {
		h.add(row)
	}
	return h.a, nil
}
