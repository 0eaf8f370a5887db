// Package queuespec keeps the gateway-discipline registry closed over one
// package. The registry's extensibility argument rests on two facts: every
// factory is registered from an init function inside internal/queue, so the
// registry's contents are knowable by reading one package; and no code
// outside that package dispatches on discipline names, so adding a
// discipline is one new file plus one Register line — never a hunt for
// name switches scattered through the harness. Both facts erode silently
// (a convenience Register call in a test helper, a quick `if spec.Name ==
// "red"` in the runner), which is why a machine check must hold them.
package queuespec

import (
	"go/ast"
	"go/token"

	"tcpburst/internal/analysis"
)

// Analyzer is the discipline-registry closure checker.
var Analyzer = &analysis.Analyzer{
	Name: "queuespec",
	Doc:  "discipline factories register in init inside internal/queue; no code outside it compares or switches on Spec.Name — dispatch belongs to Build/Registered and the Spec helpers (Label, Reporting, RegisterMetrics, REDSettings)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	cfg := analysis.Default
	path := pass.Pkg.Path()
	inRegistry := cfg.QueuePackageIs(path)

	for _, f := range pass.Files {
		// Walk declaration by declaration so Register calls know their
		// enclosing function: only init bodies may register factories.
		for _, decl := range f.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			inInit := fd != nil && fd.Recv == nil && fd.Name.Name == "init"
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkRegister(pass, n, inRegistry, inInit, path)
				case *ast.BinaryExpr:
					if inRegistry {
						return true
					}
					if n.Op == token.EQL || n.Op == token.NEQ {
						for _, operand := range []ast.Expr{n.X, n.Y} {
							if isSpecName(pass, operand) {
								pass.Reportf(n.OpPos,
									"comparing queue.Spec.Name outside %s; discipline-name dispatch belongs to the registry — use queue.Build, queue.Registered, or a Spec helper (Label, Reporting, RegisterMetrics, REDSettings)", analysis.Default.QueuePackage)
								break
							}
						}
					}
				case *ast.SwitchStmt:
					if !inRegistry && n.Tag != nil && isSpecName(pass, n.Tag) {
						pass.Reportf(n.Switch,
							"switching on queue.Spec.Name outside %s; discipline-name dispatch belongs to the registry — use queue.Build, queue.Registered, or a Spec helper (Label, Reporting, RegisterMetrics, REDSettings)", analysis.Default.QueuePackage)
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// checkRegister flags queue.Register calls anywhere but an init function
// inside the registry package.
func checkRegister(pass *analysis.Pass, call *ast.CallExpr, inRegistry, inInit bool, path string) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Register" || fn.Pkg() == nil ||
		fn.Pkg().Path() != analysis.Default.QueuePackage {
		return
	}
	switch {
	case !inRegistry:
		pass.Reportf(call.Pos(),
			"queue.Register called from %s; discipline factories register in an init function inside %s so the registry's contents are knowable by reading one package", path, analysis.Default.QueuePackage)
	case !inInit:
		pass.Reportf(call.Pos(),
			"queue.Register outside an init function; registration is a program-shape fact — register factories from init so the registry is complete before any Build")
	}
}

// isSpecName reports whether expr selects the Name field of a
// (possibly pointered) queue.Spec value.
func isSpecName(pass *analysis.Pass, expr ast.Expr) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Name" {
		return false
	}
	named := analysis.NamedOf(pass.TypesInfo.TypeOf(sel.X))
	return named != nil &&
		named.Obj().Name() == "Spec" &&
		named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == analysis.Default.QueuePackage
}
