// Package analysis implements v-sensor identification (paper §3): snippet
// enumeration, dependency propagation over abstract value sources,
// intra-procedural loop-variance analysis, inter-procedural propagation
// through call sites over a bottom-up call-graph traversal, and
// multi-process (rank-dependence) analysis.
package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// SourceKind classifies an abstract value source.
type SourceKind int

// Source kinds. A value abstracted to {Const} only is a compile-time
// constant; Param and Global defer judgement to call sites; Rank marks
// process identity (paper §3.4); Extern marks never-fixed provenance
// (paper §3.5); LoopVar marks dependence on a loop's iteration state.
const (
	SrcConst SourceKind = iota
	SrcParam
	SrcGlobal
	SrcRank
	SrcExtern
	SrcLoopVar
)

// Source is one abstract provenance item.
type Source struct {
	Kind SourceKind
	Idx  int    // parameter index (SrcParam) or loop ID (SrcLoopVar)
	Name string // global name (SrcGlobal)
}

// String renders the source for diagnostics.
func (s Source) String() string {
	switch s.Kind {
	case SrcConst:
		return "const"
	case SrcParam:
		return fmt.Sprintf("param(%d)", s.Idx)
	case SrcGlobal:
		return "global(" + s.Name + ")"
	case SrcRank:
		return "rank"
	case SrcExtern:
		return "extern"
	case SrcLoopVar:
		return fmt.Sprintf("loop(%d)", s.Idx)
	}
	return "?"
}

// Param returns a parameter source.
func Param(i int) Source { return Source{Kind: SrcParam, Idx: i} }

// GlobalSrc returns a global-variable source.
func GlobalSrc(name string) Source { return Source{Kind: SrcGlobal, Name: name} }

// LoopVar returns a loop-iteration source for the loop with the given ID.
func LoopVar(loopID int) Source { return Source{Kind: SrcLoopVar, Idx: loopID} }

// Singleton sources.
var (
	ConstSrc  = Source{Kind: SrcConst}
	RankSrc   = Source{Kind: SrcRank}
	ExternSrc = Source{Kind: SrcExtern}
)

// SourceSet is a set of abstract sources. The zero value is the empty set;
// all operations are non-mutating unless named otherwise.
type SourceSet struct {
	m map[Source]bool
}

// NewSet returns a set of the given sources.
func NewSet(srcs ...Source) SourceSet {
	s := SourceSet{m: make(map[Source]bool, len(srcs))}
	for _, x := range srcs {
		s.m[x] = true
	}
	return s
}

// Has reports membership.
func (s SourceSet) Has(x Source) bool { return s.m[x] }

// HasKind reports whether any member has the given kind.
func (s SourceSet) HasKind(k SourceKind) bool {
	for x := range s.m {
		if x.Kind == k {
			return true
		}
	}
	return false
}

// Len returns the cardinality.
func (s SourceSet) Len() int { return len(s.m) }

// Union returns s ∪ t.
func (s SourceSet) Union(t SourceSet) SourceSet {
	if len(t.m) == 0 {
		return s
	}
	if len(s.m) == 0 {
		return t
	}
	u := SourceSet{m: make(map[Source]bool, len(s.m)+len(t.m))}
	for x := range s.m {
		u.m[x] = true
	}
	for x := range t.m {
		u.m[x] = true
	}
	return u
}

// Add returns s ∪ {x}.
func (s SourceSet) Add(x Source) SourceSet {
	if s.m[x] {
		return s
	}
	u := SourceSet{m: make(map[Source]bool, len(s.m)+1)}
	for y := range s.m {
		u.m[y] = true
	}
	u.m[x] = true
	return u
}

// Without returns s with every source satisfying drop removed.
func (s SourceSet) Without(drop func(Source) bool) SourceSet {
	u := SourceSet{m: make(map[Source]bool, len(s.m))}
	for x := range s.m {
		if !drop(x) {
			u.m[x] = true
		}
	}
	return u
}

// Equal reports set equality.
func (s SourceSet) Equal(t SourceSet) bool {
	if len(s.m) != len(t.m) {
		return false
	}
	for x := range s.m {
		if !t.m[x] {
			return false
		}
	}
	return true
}

// Sorted returns the members in a deterministic order.
func (s SourceSet) Sorted() []Source {
	out := make([]Source, 0, len(s.m))
	for x := range s.m {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Idx != b.Idx {
			return a.Idx < b.Idx
		}
		return a.Name < b.Name
	})
	return out
}

// String renders the set deterministically, e.g. "{param(0), global(G)}".
func (s SourceSet) String() string {
	parts := make([]string, 0, len(s.m))
	for _, x := range s.Sorted() {
		parts = append(parts, x.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Globals returns the names of all global sources in the set.
func (s SourceSet) Globals() []string {
	var out []string
	for x := range s.m {
		if x.Kind == SrcGlobal {
			out = append(out, x.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Params returns the indices of all parameter sources in the set.
func (s SourceSet) Params() []int {
	var out []int
	for x := range s.m {
		if x.Kind == SrcParam {
			out = append(out, x.Idx)
		}
	}
	sort.Ints(out)
	return out
}
