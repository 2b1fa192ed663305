// Package vm interprets analyzed mini-C programs on the simulated cluster.
// It executes one goroutine per MPI rank over virtual clocks (mpisim),
// charges compute/memory/network/IO costs through the cluster model, drives
// the simulated PMU, and fires Tick/Tock probe events for instrumented
// v-sensors (paper workflow step 6: "Run").
package vm

import (
	"fmt"

	"vsensor/internal/minic"
)

// Kind tags a runtime value.
type Kind uint8

// Value kinds.
const (
	KInt Kind = iota
	KFloat
	KIntArr
	KFloatArr
)

// Value is a mini-C runtime value. Arrays are reference values: the two
// slice headers sit behind one pointer, so the scalars that make up nearly
// all interpreted traffic move as 32 bytes.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	arr  *array
}

// array is the storage of an array value; Kind says which slice is live.
type array struct {
	ints   []int64
	floats []float64
}

// IntVal wraps an int64.
func IntVal(v int64) Value { return Value{Kind: KInt, I: v} }

// FloatVal wraps a float64.
func FloatVal(v float64) Value { return Value{Kind: KFloat, F: v} }

// AsInt converts numeric values to int64.
func (v Value) AsInt() int64 {
	if v.Kind == KFloat {
		return int64(v.F)
	}
	return v.I
}

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() float64 {
	if v.Kind == KFloat {
		return v.F
	}
	return float64(v.I)
}

// IsArray reports whether the value is an array.
func (v Value) IsArray() bool { return v.Kind == KIntArr || v.Kind == KFloatArr }

// Len returns an array's length.
func (v Value) Len() int {
	switch v.Kind {
	case KIntArr:
		return len(v.arr.ints)
	case KFloatArr:
		return len(v.arr.floats)
	}
	return 0
}

// String renders the value for print().
func (v Value) String() string {
	switch v.Kind {
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KFloat:
		return fmt.Sprintf("%g", v.F)
	case KIntArr:
		return fmt.Sprintf("int[%d]", len(v.arr.ints))
	case KFloatArr:
		return fmt.Sprintf("float[%d]", len(v.arr.floats))
	}
	return "?"
}

// zeroValue returns the zero value for a declared type.
func zeroValue(t minic.Type, arrLen int) Value {
	switch t {
	case minic.TypeInt:
		return IntVal(0)
	case minic.TypeFloat:
		return FloatVal(0)
	case minic.TypeIntArray:
		return Value{Kind: KIntArr, arr: &array{ints: make([]int64, arrLen)}}
	case minic.TypeFloatArray:
		return Value{Kind: KFloatArr, arr: &array{floats: make([]float64, arrLen)}}
	}
	return IntVal(0)
}

// RuntimeError is an execution fault with a source position.
type RuntimeError struct {
	Rank int
	Pos  minic.Pos
	Msg  string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("rank %d: %s: %s", e.Rank, e.Pos, e.Msg)
}

func rtErr(rank int, pos minic.Pos, format string, args ...any) *RuntimeError {
	return &RuntimeError{Rank: rank, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
