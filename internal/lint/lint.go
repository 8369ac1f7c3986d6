// Package lint enforces the repository's security-architecture invariants
// over the Go sources themselves — the repo-level analogue of what package
// staticflow does to machine programs. Five rules, all purely syntactic
// (go/ast, no external dependencies):
//
//   - obs-zero-dep: internal/obs is the observability layer every subsystem
//     may import, so it must import nothing from this module — otherwise
//     instrumentation could drag modelled state into scope. Subpackages
//     (internal/obs/analyze) sit a layer above: they consume recorded
//     traces offline, so they may import the obs core and the equally
//     dependency-free covert arithmetic, but still nothing that models or
//     mutates machine state (kernel, machine, separability, ...).
//
//   - raw-machine-access: only internal/kernel, internal/machine itself and
//     internal/distmachine (whose boot path stands in for the hardware
//     loader) may call the machine's raw state mutators. Everything else
//     reaches machine state through the kernel's Φ abstraction (the
//     adapter), never into another colour's registers or memory directly.
//
//   - raw-device-access: outside internal/machine, device state is mutated
//     only through the machine's write-barrier entry points
//     (machine.Inject, Restore, the I/O page). Calling a Device's own
//     mutators (InjectInput, WriteReg, RestoreState, ...) directly would
//     bypass delta-snapshot dirty tracking and silently corrupt O(dirty)
//     rollback, so the linter forbids it.
//
//   - obs-hook-pure: tracing hooks observe, they never mutate. Inside a
//     tracer-guarded region (an `if x.tracer != nil` body, code following an
//     `if x.tracer == nil { return }` guard, or a method named emit*/trace*)
//     no receiver state may be assigned and no raw mutator may be called.
//     Observation must not perturb the modelled system — the property that
//     keeps verification results valid with tracing enabled.
//
//   - artifact-io: witness, shard and ledger evidence is sealed, hashed and
//     written by internal/artifact alone, so the ID rule and the
//     one-rename write rule have one implementation. os.CreateTemp and
//     os.Rename may appear only there, and crypto/sha256 may be imported
//     only there and by internal/auth, which hashes for other reasons.
//
// The kernel service table the static analyzer models TRAPs by is not
// checked here: a syntactic rule could check only that the table names the
// kernel's layout constants, so internal/kernel's TestServiceABI checks it
// by trapping into a booted kernel instead.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
)

// Diagnostic is one rule violation.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Msg)
}

// module is the import-path prefix of this repository.
const module = "repro"

// rawMutators are machine methods that write modelled machine state. The
// names are specific enough that a bare name match is reliable in this
// repository (generic names like Reset or Step are deliberately absent).
var rawMutators = map[string]bool{
	"SetReg": true, "SetPC": true, "SetPSW": true, "SetAltSP": true,
	"SetSeg": true, "WritePhys": true, "LoadImage": true, "SetVector": true,
	"ClearRAM": true, "ClearWaiting": true, "TickDevices": true,
	"DeltaRestore": true,
}

// deviceMutators are Device methods that write device state without passing
// through the machine's write barrier. Only internal/machine (which owns
// the barrier) may call them; everyone else goes through machine.Inject or
// the I/O page so delta snapshots journal the mutation.
var deviceMutators = map[string]bool{
	"InjectInput": true, "InjectString": true,
	"RestoreState": true, "WriteReg": true,
}

// mutatorAllowed lists package directories that may call raw mutators.
var mutatorAllowed = map[string]bool{
	"internal/machine":     true,
	"internal/kernel":      true,
	"internal/distmachine": true,
}

// tracerFields are the receiver fields recognised as tracer hooks.
var tracerFields = map[string]bool{"tracer": true, "events": true}

// sha256Allowed lists the package directories that may import crypto/sha256.
var sha256Allowed = map[string]bool{
	"internal/artifact": true,
	"internal/auth":     true,
}

// Run lints every .go file under root (skipping testdata and hidden
// directories) and returns the diagnostics in file order.
func Run(root string) ([]Diagnostic, error) {
	var diags []Diagnostic
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ds, err := lintFile(fset, path, filepath.ToSlash(filepath.Dir(rel)))
		if err != nil {
			return err
		}
		diags = append(diags, ds...)
		return nil
	})
	return diags, err
}

// lintFile lints one file; dir is the slash-separated package directory
// relative to the repository root ("internal/obs", "cmd/sepflow", ...).
func lintFile(fset *token.FileSet, path, dir string) ([]Diagnostic, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	isTest := strings.HasSuffix(path, "_test.go")
	l := &linter{fset: fset}

	if !isTest && dir == "internal/obs" {
		l.checkObsImports(f)
	}
	if !isTest && strings.HasPrefix(dir, "internal/obs/") {
		l.checkObsSubImports(f)
	}
	if !isTest && !mutatorAllowed[dir] {
		l.checkRawAccess(f)
	}
	if !isTest && dir != "internal/machine" {
		l.checkDeviceAccess(f)
	}
	if !isTest && mutatorAllowed[dir] {
		l.checkHookPurity(f)
	}
	if !isTest {
		l.checkArtifactIO(f, dir)
	}
	return l.diags, nil
}

type linter struct {
	fset  *token.FileSet
	diags []Diagnostic
}

func (l *linter) report(pos token.Pos, rule, format string, args ...any) {
	l.diags = append(l.diags, Diagnostic{
		Pos:  l.fset.Position(pos),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// checkObsImports enforces obs-zero-dep for the obs core.
func (l *linter) checkObsImports(f *ast.File) {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p == module || strings.HasPrefix(p, module+"/") {
			l.report(imp.Pos(), "obs-zero-dep",
				"internal/obs must not import %s (keep the observability layer dependency-free)", p)
		}
	}
}

// obsSubAllowed are the module imports an internal/obs subpackage may use:
// the obs core itself plus covert, both of which import only the standard
// library (the core by this linter, covert by inspection — fmt and math).
var obsSubAllowed = map[string]bool{
	module + "/internal/obs":    true,
	module + "/internal/covert": true,
}

// checkObsSubImports enforces obs-zero-dep for internal/obs subpackages.
func (l *linter) checkObsSubImports(f *ast.File) {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if (p == module || strings.HasPrefix(p, module+"/")) && !obsSubAllowed[p] {
			l.report(imp.Pos(), "obs-zero-dep",
				"internal/obs subpackages may import only the obs core and internal/covert, not %s (trace analysis must stay outside the modelled system)", p)
		}
	}
}

// checkRawAccess enforces raw-machine-access.
func (l *linter) checkRawAccess(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !rawMutators[sel.Sel.Name] {
			return true
		}
		l.report(call.Pos(), "raw-machine-access",
			"%s writes raw machine state; go through the kernel adapter (Φ) instead", sel.Sel.Name)
		return true
	})
}

// checkDeviceAccess enforces raw-device-access.
func (l *linter) checkDeviceAccess(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !deviceMutators[sel.Sel.Name] {
			return true
		}
		l.report(call.Pos(), "raw-device-access",
			"%s mutates device state behind the write barrier; use machine.Inject (or the I/O page) so delta snapshots stay sound", sel.Sel.Name)
		return true
	})
}

// checkArtifactIO enforces artifact-io.
func (l *linter) checkArtifactIO(f *ast.File, dir string) {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) == "crypto/sha256" && !sha256Allowed[dir] {
			l.report(imp.Pos(), "artifact-io",
				"crypto/sha256 imported outside internal/artifact; content IDs and blob addresses come from artifact.Seal and artifact.Hash")
		}
	}
	if dir == "internal/artifact" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "CreateTemp" && sel.Sel.Name != "Rename") {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "os" {
			l.report(sel.Pos(), "artifact-io",
				"os.%s outside internal/artifact; write artifacts with artifact.WriteFile (one temp file, one rename)", sel.Sel.Name)
		}
		return true
	})
}

// checkHookPurity enforces obs-hook-pure over every method in the file.
func (l *linter) checkHookPurity(f *ast.File) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Body == nil || len(fn.Recv.List) == 0 ||
			len(fn.Recv.List[0].Names) == 0 {
			continue
		}
		recv := fn.Recv.List[0].Names[0].Name
		lname := strings.ToLower(fn.Name.Name)
		inHook := strings.HasPrefix(lname, "emit") || strings.HasPrefix(lname, "trace")
		l.walkBlock(fn.Body, recv, inHook)
	}
}

// walkBlock walks a statement block tracking whether execution is inside a
// tracer-guarded hook region.
func (l *linter) walkBlock(b *ast.BlockStmt, recv string, inHook bool) {
	hooked := inHook
	for _, stmt := range b.List {
		if ifs, ok := stmt.(*ast.IfStmt); ok {
			switch l.guardKind(ifs.Cond, recv) {
			case guardEnabled: // if r.tracer != nil { hook body }
				l.walkBlock(ifs.Body, recv, true)
				if els, ok := ifs.Else.(*ast.BlockStmt); ok {
					l.walkBlock(els, recv, hooked)
				}
				continue
			case guardDisabled: // if r.tracer == nil { return }: the rest is hook code
				l.walkBlock(ifs.Body, recv, hooked)
				if endsInReturn(ifs.Body) {
					hooked = true
				}
				continue
			}
		}
		l.walkStmt(stmt, recv, hooked)
	}
}

type guard int

const (
	guardNone guard = iota
	guardEnabled
	guardDisabled
)

// guardKind classifies `recv.tracer != nil` / `recv.tracer == nil` tests.
func (l *linter) guardKind(cond ast.Expr, recv string) guard {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return guardNone
	}
	var sel ast.Expr
	switch {
	case isNil(bin.Y):
		sel = bin.X
	case isNil(bin.X):
		sel = bin.Y
	default:
		return guardNone
	}
	se, ok := sel.(*ast.SelectorExpr)
	if !ok || !tracerFields[se.Sel.Name] {
		return guardNone
	}
	if id, ok := se.X.(*ast.Ident); !ok || id.Name != recv {
		return guardNone
	}
	switch bin.Op {
	case token.NEQ:
		return guardEnabled
	case token.EQL:
		return guardDisabled
	}
	return guardNone
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

// walkStmt inspects one statement; when hooked, receiver-state writes and
// raw mutator calls are violations.
func (l *linter) walkStmt(stmt ast.Stmt, recv string, hooked bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		// Nested blocks re-enter walkBlock so guards inside loops work.
		if inner, ok := n.(*ast.BlockStmt); ok {
			l.walkBlock(inner, recv, hooked)
			return false
		}
		if !hooked {
			return true
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if fld, yes := l.rootedAtRecv(lhs, recv); yes && !tracerFields[fld] {
					l.report(lhs.Pos(), "obs-hook-pure",
						"tracing hook writes receiver state (%s.%s); hooks must only observe", recv, fld)
				}
			}
		case *ast.IncDecStmt:
			if fld, yes := l.rootedAtRecv(x.X, recv); yes && !tracerFields[fld] {
				l.report(x.Pos(), "obs-hook-pure",
					"tracing hook mutates receiver state (%s.%s); hooks must only observe", recv, fld)
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && rawMutators[sel.Sel.Name] {
				l.report(x.Pos(), "obs-hook-pure",
					"tracing hook calls raw mutator %s; hooks must only observe", sel.Sel.Name)
			}
		}
		return true
	})
}

// rootedAtRecv reports whether expr is a selector chain rooted at the
// receiver identifier, returning the first selected field name.
func (l *linter) rootedAtRecv(expr ast.Expr, recv string) (field string, ok bool) {
	for {
		switch x := expr.(type) {
		case *ast.SelectorExpr:
			if id, isID := x.X.(*ast.Ident); isID && id.Name == recv {
				return x.Sel.Name, true
			}
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.ParenExpr:
			expr = x.X
		default:
			return "", false
		}
	}
}
