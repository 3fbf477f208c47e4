// Package sema is Buffy's static analyzer: a multi-pass semantic
// analysis over the typed AST that emits structured, position-carrying
// diagnostics and — when the program is trivially decidable — answers
// verify/witness queries without running a solver (the "static" analysis
// tier, see DESIGN.md "Analysis tiers").
//
// Three passes run in order:
//
//  1. structural checks (unused declarations, horizon sanity, topology),
//  2. interval abstract interpretation over the unrolled transition
//     system (unreachable branches, dead constraints, contradictory
//     assumptions, guaranteed capacity violations),
//  3. well-formedness lints for queueing-model programs (non-positive
//     rates/weights, sub-packet token-bucket bursts, priority ties).
//
// Every diagnostic carries a stable code (B001, B101, ...) so tests and
// CI can assert on exact findings, and a source position so the vet
// driver can render file:line:col excerpts uniformly with parse and
// type errors.
package sema

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"buffy/internal/lang/token"
)

// Severity ranks a diagnostic.
type Severity int

// Diagnostic severities, most severe first.
const (
	// Error: the program cannot be analyzed meaningfully (contradictory
	// assumptions, bad horizon). Errors gate solving.
	Error Severity = iota
	// Warn: almost certainly a bug in the model, but analysis can
	// proceed.
	Warn
	// Info: a finding worth knowing (dead constraint, sub-optimal
	// horizon) that needs no action.
	Info
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warn:
		return "warning"
	case Info:
		return "info"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Diagnostic codes. Codes are stable across releases: tests, CI and
// editor integrations key on them.
const (
	CodeUnusedVar     = "B001" // declared variable never referenced
	CodeUnusedBuffer  = "B002" // buffer parameter never referenced
	CodeBadHorizon    = "B003" // horizon T <= 0
	CodeShallowT      = "B004" // horizon smaller than pipeline depth
	CodeNotFeedFwd    = "B005" // buffer topology has a cycle
	CodeShadowParam   = "B006" // loop variable shadows a compile-time parameter
	CodeCondTrue      = "B101" // branch condition always true
	CodeCondFalse     = "B102" // branch condition always false
	CodeContradiction = "B103" // assume constraints are unsatisfiable
	CodeDeadAssert    = "B104" // assert always holds (dead constraint)
	CodeNeverAssert   = "B105" // assert can never hold
	CodeOverflow      = "B106" // guaranteed buffer capacity violation
	CodeBadRate       = "B201" // rate/weight/size parameter not positive
	CodeTinyBurst     = "B202" // token-bucket burst admits no packet
	CodeNegativeMove  = "B203" // move count is always negative
	CodePriorityTie   = "B204" // equal priority/weight parameters
	CodeParseError    = "B030" // parse error (wrapped by the vet driver)
	CodeTypeError     = "B040" // type error (wrapped by the vet driver)
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Code     string    `json:"code"`
	Severity Severity  `json:"-"`
	Pos      token.Pos `json:"-"`
	Msg      string    `json:"msg"`
	// Hint is an optional fix-it suggestion.
	Hint string `json:"hint,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%v: %v[%s]: %s", d.Pos, d.Severity, d.Code, d.Msg)
	if d.Hint != "" {
		s += " (" + d.Hint + ")"
	}
	return s
}

// MarshalJSON exposes severity and position in wire-friendly form; the
// struct tags above keep the raw fields out of the default encoding.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(diagJSON{
		Code: d.Code, Severity: d.Severity.String(),
		Line: d.Pos.Line, Col: d.Pos.Col, Msg: d.Msg, Hint: d.Hint,
	})
}

type diagJSON struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Msg      string `json:"msg"`
	Hint     string `json:"hint,omitempty"`
}

// Report is the outcome of analyzing one program.
type Report struct {
	Diags []Diagnostic
	// Verdict is the statically-determined query outcome, if any.
	Verdict Verdict
	// Steps is the interval pass's work counter, at most MaxSteps.
	Steps int64
}

// Verdict is sema's answer to the verify/witness questions when the
// program is decidable by over-approximation alone. Over-approximate
// abstract interpretation is sound only in the "nothing bad can happen"
// directions, so a verdict can say Holds or NoWitness but never
// CounterexampleFound or WitnessFound — those require exhibiting a
// concrete execution, which is the solver's job.
type Verdict struct {
	// Verify is "holds" when every execution within the horizon
	// satisfies all reachable asserts ("" = statically unknown).
	Verify string
	// Witness is "no-witness" when no execution can satisfy the query
	// ("" = statically unknown).
	Witness string
	// Reason names why; one of the Reason* constants below.
	Reason string
}

// Verdict reasons.
const (
	// ReasonNoAsserts: the program has no assert statements at all.
	// Verify holds and no witness exists vacuously — but note the SMT
	// backend refuses such queries outright ("nothing to check"), so the
	// pre-solve gate passes them through rather than answering.
	ReasonNoAsserts = "no-asserts"
	// ReasonAssumeContradiction: the conjoined workload assumptions admit
	// no execution; every query over the program is vacuous.
	ReasonAssumeContradiction = "assume-contradiction"
	// ReasonAssertsAlwaysTrue: every reachable assert instance is an
	// interval-provable invariant.
	ReasonAssertsAlwaysTrue = "asserts-always-true"
	// ReasonAssertsUnreachable: asserts exist syntactically but all sit on
	// statically-dead paths.
	ReasonAssertsUnreachable = "asserts-unreachable"
	// ReasonAssertNeverHolds: some assert is reached unconditionally and
	// its condition is false on every execution.
	ReasonAssertNeverHolds = "assert-never-holds"
)

// Conclusive reports whether the verdict decides the given direction.
func (v Verdict) Conclusive() bool { return v.Verify != "" || v.Witness != "" }

func (r *Report) add(d Diagnostic) { r.Diags = append(r.Diags, d) }

// HasErrors reports whether any diagnostic is error-severity.
func (r *Report) HasErrors() bool {
	for _, d := range r.Diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Clean reports whether the program produced no errors and no warnings
// (info findings are allowed — they need no action).
func (r *Report) Clean() bool {
	for _, d := range r.Diags {
		if d.Severity != Info {
			return false
		}
	}
	return true
}

// Sort orders diagnostics by position, then severity, then code, so
// output is deterministic across map-iteration orders.
func (r *Report) Sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		return a.Code < b.Code
	})
}

// VetError carries error-severity diagnostics across an API boundary: the
// core facade returns it when the pre-solve gate rejects a program, and
// the service maps it to the vet_rejected failure class.
type VetError struct {
	Diags []Diagnostic
}

func (e *VetError) Error() string {
	n := 0
	var first Diagnostic
	for _, d := range e.Diags {
		if d.Severity == Error {
			if n == 0 {
				first = d
			}
			n++
		}
	}
	if n == 0 && len(e.Diags) > 0 {
		first, n = e.Diags[0], 1
	}
	if n > 1 {
		return fmt.Sprintf("vet: %s (and %d more)", first, n-1)
	}
	return "vet: " + first.String()
}

// Excerpt renders the source line at pos with a caret column marker, the
// classic compiler fix-it layout:
//
//	7 |   assume(x < 3);
//	  |          ^
func Excerpt(src string, pos token.Pos) string {
	if !pos.IsValid() {
		return ""
	}
	lines := strings.Split(src, "\n")
	if pos.Line < 1 || pos.Line > len(lines) {
		return ""
	}
	line := strings.ReplaceAll(lines[pos.Line-1], "\t", " ")
	num := fmt.Sprintf("%4d", pos.Line)
	caret := strings.Repeat(" ", maxInt(0, pos.Col-1)) + "^"
	return fmt.Sprintf("%s | %s\n%s | %s", num, line, strings.Repeat(" ", len(num)), caret)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
