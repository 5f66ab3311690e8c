// Command lint enforces seven repository-specific invariants that ordinary
// go vet cannot express, using only the standard library's go/ast:
//
//  1. handlers-table immutability: the per-form dispatch table in
//     internal/cpu (package cpu, `handlers`) is written only by its
//     declaration and buildHandlers. Every other write would mutate live
//     dispatch behind the decoded-block cache's back.
//
//  2. cycle accounting: the vCPU cycle counter (`.Cycles`) is mutated only
//     by Charge/ChargeInsns in package cpu. Scattered `c.Cycles +=` writes
//     are how double-charging bugs crept into trap-cost measurements.
//
//  3. cache-state confinement: the TLB's entry map (`.entries` in package
//     mem) is touched only by tlb.go, and the micro-TLB state (`.mtlb` in
//     package cpu) only by microtlb.go. The soundness arguments for the
//     host fastpaths are audits of those single files; a stray access
//     elsewhere would silently widen the audit surface.
//
//  4. backend-state confinement: each isolation backend's private state in
//     package core is touched only by its backend's files — the secure
//     call-gate machinery (`.gateTabPA`, `.ttbrTabPA`, `.gateCode`,
//     `.gatePages`, `.gatePgt`) by gate.go, overlay key records (`.okeys`)
//     by backend_overlay.go, granule delegation state (`.gran`) by
//     backend_granule.go. The Backend interface is the only cross-backend
//     surface; state reaching across it would let one backend's semantics
//     leak into another's.
//
//  5. proof confinement: an absint.Proof is constructed only inside
//     internal/arm64/absint (ProveBlock and ComposeTrace are the sole
//     factories — a literal built elsewhere would be an unproven claim
//     wearing a proof's type; literals are matched through the file's
//     import of absint, so an unrelated type named Proof is not flagged),
//     the cached proof slots (`.proof` in package cpu, on blocks and
//     traces) are touched only by proofaudit.go, and the code-epoch tracker
//     (`.epochs` in package cpu) only by blockcache.go — epoch bumps are
//     the proof/block invalidation chokepoint, so the soundness audit is
//     those two files.
//
//  6. trace-cache confinement: the stitched-trace state (`.tcache` in
//     package cpu) is touched only by trace.go. The trace compiler's
//     soundness argument — guard coverage, invalidation chokepoints,
//     batched-flush identity — is an audit of that single file.
//
//  7. copy-on-write confinement: the zygote fork's frame-share state
//     (`.cowShares`, `.cowParent`, `.cowForks`, `.cowCopies` in package
//     mem) is touched only by phys.go. The COW soundness argument — every
//     mutation funnels through frameForWrite, refcounts account every
//     holder, no frame storage ever backs two physical addresses — is an
//     audit of that single file; a stray refcount access elsewhere would
//     invalidate it.
//
// Usage: go run ./tools/lint [root]   (root defaults to ".")
//
// Exits non-zero and prints one line per violation. Test files are skipped:
// the invariants protect production dispatch and measurement, not fixtures.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	fset := token.NewFileSet()
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		problems = append(problems, lintFile(fset, f)...)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// chargers are the only functions allowed to mutate a .Cycles field.
var chargers = map[string]bool{"Charge": true, "ChargeInsns": true}

// confined lists selector names whose owning state is confined to a single
// file per package: package -> selector -> the only file allowed to use it.
var confined = map[string]map[string]string{
	"mem": {
		"entries":   "tlb.go",
		"cowShares": "phys.go",
		"cowParent": "phys.go",
		"cowForks":  "phys.go",
		"cowCopies": "phys.go",
	},
	"cpu": {
		"mtlb":   "microtlb.go",
		"proof":  "proofaudit.go",
		"epochs": "blockcache.go",
		"tcache": "trace.go",
	},
	"core": {
		"gateTabPA": "gate.go",
		"ttbrTabPA": "gate.go",
		"gateCode":  "gate.go",
		"gatePages": "gate.go",
		"gatePgt":   "gate.go",
		"okeys":     "backend_overlay.go",
		"gran":      "backend_granule.go",
	},
}

// absintPath is the import path of the package that alone mints proofs.
const absintPath = "lightzone/internal/arm64/absint"

// absintImport returns the name under which f imports absintPath ("." for
// a dot import), or "" when it does not import it.
func absintImport(f *ast.File) string {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != absintPath {
			continue
		}
		if imp.Name == nil {
			return "absint"
		}
		return imp.Name.Name
	}
	return ""
}

// lintFile checks one parsed file and returns its violations.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	inCPU := f.Name.Name == "cpu"
	base := filepath.Base(fset.Position(f.Pos()).Filename)
	if rules := confined[f.Name.Name]; rules != nil {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if owner, confined := rules[sel.Sel.Name]; confined && base != owner {
				problems = append(problems, fmt.Sprintf(
					"%s: .%s accessed outside %s; this state is confined to its owning file",
					fset.Position(sel.Pos()), sel.Sel.Name, owner))
			}
			return true
		})
	}
	if name := absintImport(f); name != "" && f.Name.Name != "absint" {
		ast.Inspect(f, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			minted := false
			switch t := cl.Type.(type) {
			case *ast.Ident:
				minted = name == "." && t.Name == "Proof"
			case *ast.SelectorExpr:
				x, ok := t.X.(*ast.Ident)
				minted = ok && x.Name == name && t.Sel.Name == "Proof"
			}
			if minted {
				problems = append(problems, fmt.Sprintf(
					"%s: absint.Proof constructed outside internal/arm64/absint; only ProveBlock/ComposeTrace may mint proofs",
					fset.Position(cl.Pos())))
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		report := func(pos token.Pos, msg string) {
			problems = append(problems, fmt.Sprintf("%s: %s", fset.Position(pos), msg))
		}
		checkLHS := func(lhs ast.Expr) {
			if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Cycles" {
				if !(inCPU && chargers[fn.Name.Name]) {
					report(lhs.Pos(), "cycle counter mutated outside Charge/ChargeInsns; charge cycles through the vCPU API")
				}
			}
			if !inCPU || fn.Name.Name == "buildHandlers" {
				return
			}
			target := lhs
			if idx, ok := lhs.(*ast.IndexExpr); ok {
				target = idx.X
			}
			if id, ok := target.(*ast.Ident); ok && id.Name == "handlers" {
				report(lhs.Pos(), "dispatch table written outside buildHandlers; the handlers table is immutable after construction")
			}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkLHS(lhs)
				}
			case *ast.IncDecStmt:
				checkLHS(st.X)
			}
			return true
		})
	}
	return problems
}
