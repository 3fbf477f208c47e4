// Package vet is the driver for Buffy's static analyzer: it takes raw
// source, runs parse -> typecheck -> sema and folds every stage's
// findings into one uniformly-rendered diagnostic report. Parse and type
// errors become position-carrying diagnostics (codes B030/B040) exactly
// like sema's own findings, so a user sees one consistent
// file:line:col format regardless of which stage complained.
package vet

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"buffy/internal/lang/lexer"
	"buffy/internal/lang/parser"
	"buffy/internal/lang/sema"
	"buffy/internal/lang/token"
	"buffy/internal/lang/typecheck"
)

// Fingerprint names the static-analysis semantics (parse, typecheck,
// sema interval analysis) for the durable result store's pipeline
// fingerprint. Bump it when a sema change could alter a static verdict
// or diagnostic that feeds an analysis answer.
const Fingerprint = "sema-intervals-v2"

// Result is the outcome of vetting one program.
type Result struct {
	// Program is the program's declared name ("" when parsing failed
	// before the name was seen).
	Program string `json:"program,omitempty"`
	// Report holds the diagnostics and any static verdict. Always
	// non-nil; on parse/type errors it contains the wrapped errors and
	// no verdict.
	Report *sema.Report `json:"report"`
	// Info is the typecheck result (nil when parse or typecheck failed).
	Info *typecheck.Info `json:"-"`
}

// Source vets one Buffy program from source. It never returns an error:
// every failure mode is a diagnostic in the report.
func Source(src string, opts sema.Options) *Result {
	res := &Result{Report: &sema.Report{}}

	prog, err := parser.Parse(src)
	if err != nil {
		res.Report.Diags = append(res.Report.Diags, wrapStageError(err, sema.CodeParseError))
		return res
	}
	res.Program = prog.Name

	info, errs := typecheck.CheckAll(prog)
	if len(errs) > 0 {
		for _, e := range errs {
			res.Report.Diags = append(res.Report.Diags, sema.Diagnostic{
				Code: sema.CodeTypeError, Severity: sema.Error, Pos: e.Pos, Msg: e.Msg,
			})
		}
		return res
	}
	res.Info = info
	res.Report = sema.Analyze(info, opts)
	return res
}

// wrapStageError converts a parse/lex error into a diagnostic, keeping
// its position when the concrete error type carries one.
func wrapStageError(err error, code string) sema.Diagnostic {
	d := sema.Diagnostic{Code: code, Severity: sema.Error, Msg: err.Error()}
	var pe *parser.Error
	var le *lexer.Error
	switch {
	case errors.As(err, &pe):
		d.Pos, d.Msg = pe.Pos, pe.Msg
	case errors.As(err, &le):
		d.Pos, d.Msg = le.Pos, le.Msg
	}
	return d
}

// Render writes the report human-readably: one line per diagnostic in
// compiler format (file:line:col: severity[CODE]: message), followed by
// a source excerpt with a caret and the fix-it hint. filename may be ""
// for anonymous sources.
func Render(w io.Writer, filename, src string, res *Result) {
	prefix := ""
	if filename != "" {
		prefix = filename + ":"
	}
	for _, d := range res.Report.Diags {
		fmt.Fprintf(w, "%s%d:%d: %s[%s]: %s\n", prefix, d.Pos.Line, d.Pos.Col, d.Severity, d.Code, d.Msg)
		if ex := sema.Excerpt(src, d.Pos); ex != "" {
			fmt.Fprintln(w, ex)
		}
		if d.Hint != "" {
			fmt.Fprintf(w, "    hint: %s\n", d.Hint)
		}
	}
	if v := res.Report.Verdict; v.Conclusive() {
		parts := []string{}
		if v.Verify != "" {
			parts = append(parts, "verify: "+v.Verify)
		}
		if v.Witness != "" {
			parts = append(parts, "witness: "+v.Witness)
		}
		fmt.Fprintf(w, "%s statically decided (%s): %s\n",
			nameOr(res.Program, "program"), v.Reason, strings.Join(parts, ", "))
	}
}

// Summary is a one-line outcome for CI logs: "clean", or the diagnostic
// severity histogram.
func Summary(res *Result) string {
	var nerr, nwarn, ninfo int
	for _, d := range res.Report.Diags {
		switch d.Severity {
		case sema.Error:
			nerr++
		case sema.Warn:
			nwarn++
		default:
			ninfo++
		}
	}
	if nerr+nwarn+ninfo == 0 {
		return "clean"
	}
	return fmt.Sprintf("%d error(s), %d warning(s), %d info", nerr, nwarn, ninfo)
}

func nameOr(s, fallback string) string {
	if s != "" {
		return s
	}
	return fallback
}

// Position formatting helper shared by tests.
func posString(p token.Pos) string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }
