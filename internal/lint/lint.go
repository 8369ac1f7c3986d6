// Package lint enforces the repository's security-architecture invariants
// over the Go sources themselves — the repo-level analogue of what package
// staticflow does to machine programs. Six rules, all purely syntactic
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
//   - trap-summary-sync: the per-trap footprint table
//     (internal/kernel/footprint.go) is how the static analyzer models
//     kernel services, so it must track the kernel's real save-area layout.
//     Every save-area slot constant declared in layout.go (save*, except the
//     stride) and every Trap* service code must be referenced by name in
//     footprint.go — a slot or service added to the layout without a
//     footprint entry would silently widen the gap between the modelled and
//     the actual kernel.
//
//   - artifact-io: witness, shard and ledger evidence is sealed, hashed and
//     written by internal/artifact alone, so the ID rule and the
//     one-rename write rule have one implementation. os.CreateTemp and
//     os.Rename may appear only there, and crypto/sha256 may be imported
//     only there and by internal/auth, which hashes for other reasons.
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
	sync := &trapSync{}
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
		ds, err := lintFile(fset, path, filepath.ToSlash(filepath.Dir(rel)), sync)
		if err != nil {
			return err
		}
		diags = append(diags, ds...)
		return nil
	})
	if err != nil {
		return diags, err
	}
	return append(diags, sync.check(fset)...), nil
}

// lintFile lints one file; dir is the slash-separated package directory
// relative to the repository root ("internal/obs", "cmd/sepflow", ...).
func lintFile(fset *token.FileSet, path, dir string, sync *trapSync) ([]Diagnostic, error) {
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
	if sync != nil && dir == "internal/kernel" {
		switch filepath.Base(path) {
		case "layout.go":
			sync.collectLayout(f)
		case "footprint.go":
			sync.collectFootprint(f)
		}
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

// trapSync accumulates the cross-file state for trap-summary-sync: the
// save-area slot and service-code constants declared in
// internal/kernel/layout.go, and every identifier referenced in
// internal/kernel/footprint.go.
type trapSync struct {
	// required maps each layout constant the footprint table must cover to
	// its declaration position.
	required map[string]token.Pos
	// order preserves declaration order for deterministic diagnostics.
	order []string
	// footprintIdents is every identifier appearing in footprint.go.
	footprintIdents map[string]bool
	sawLayout       bool
	sawFootprint    bool
}

// syncExempt are layout constants the footprint table legitimately never
// names: the stride is a sizing constant, not a slot.
var syncExempt = map[string]bool{"saveStride": true}

// collectLayout records the save-slot (save*) and service-code (Trap*)
// constants declared in layout.go.
func (s *trapSync) collectLayout(f *ast.File) {
	s.sawLayout = true
	if s.required == nil {
		s.required = map[string]token.Pos{}
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				n := name.Name
				if syncExempt[n] {
					continue
				}
				if strings.HasPrefix(n, "save") || strings.HasPrefix(n, "Trap") {
					if _, dup := s.required[n]; !dup {
						s.required[n] = name.Pos()
						s.order = append(s.order, n)
					}
				}
			}
		}
	}
}

// collectFootprint records every identifier footprint.go mentions.
func (s *trapSync) collectFootprint(f *ast.File) {
	s.sawFootprint = true
	if s.footprintIdents == nil {
		s.footprintIdents = map[string]bool{}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			s.footprintIdents[id.Name] = true
		}
		return true
	})
}

// check emits one diagnostic per layout constant the footprint table fails
// to reference. Linting a tree that contains neither file is fine (rule
// inapplicable); a layout without a footprint table is one diagnostic.
func (s *trapSync) check(fset *token.FileSet) []Diagnostic {
	if !s.sawLayout {
		return nil
	}
	var diags []Diagnostic
	if !s.sawFootprint {
		var pos token.Pos
		if len(s.order) > 0 {
			pos = s.required[s.order[0]]
		}
		return append(diags, Diagnostic{
			Pos:  fset.Position(pos),
			Rule: "trap-summary-sync",
			Msg:  "internal/kernel/layout.go declares trap and save-area constants but footprint.go is missing: the static analyzer's kernel model has nothing to stay in sync with",
		})
	}
	for _, n := range s.order {
		if !s.footprintIdents[n] {
			diags = append(diags, Diagnostic{
				Pos:  fset.Position(s.required[n]),
				Rule: "trap-summary-sync",
				Msg:  fmt.Sprintf("%s is declared in the kernel layout but never referenced by the trap footprint table (footprint.go); add it to the relevant TrapFootprint so the static analyzer models it", n),
			})
		}
	}
	return diags
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
