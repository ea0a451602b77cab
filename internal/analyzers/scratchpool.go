package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ScratchPool enforces the pooled-scratch discipline from DESIGN §12 (the
// PR 7 quarantine rule, born from the PR 5 leaked-mark bug):
//
//  1. every *Scratch from ScratchPool.Get must reach ScratchPool.Put on
//     every non-panicking path (or escape into an owning struct); passing
//     scratch to a detector constructor is a borrow, not a
//     discharge, so the getter still owes the Put;
//  2. Put must never execute on a panic path — a scratch abandoned
//     mid-traversal may hold poisoned epoch marks, and repooling it hands
//     the poison to a later, unrelated run. Quarantining is simply NOT
//     calling Put (the GC reclaims the buffer), so the analyzer flags any
//     Put reachable from the non-nil branch of a recover() test.
var ScratchPool = &Analyzer{
	Name: "scratchpool",
	Doc: "check that pooled scratch is Put back on all non-panic paths " +
		"and never repooled from a recover block",
	Run: runScratchPool,
}

func runScratchPool(pass *Pass) error {
	runResource(pass, resourceRule{
		analyzer:       "scratchpool",
		recvType:       "ScratchPool",
		acquire:        "Get",
		release:        "Put",
		releaseOnOwner: true,
		nilable:        false,
		argEscapes:     false, // detectors borrow scratch; Get's frame still owes the Put
		what:           "scratch",
		past:           "Put back",
	})
	for _, f := range pass.Files {
		checkRecoverPut(pass, f)
	}
	return nil
}

// checkRecoverPut flags ScratchPool.Put calls lexically inside the panic
// branch of a recover() test:
//
//	if p := recover(); p != nil { ...pool.Put(sc)... }   // flagged
//	if r := recover(); r == nil { ... } else { Put }     // flagged
//	if p := recover(); p != nil { quarantine } else { pool.Put(sc) } // ok
//
// root is a whole file: one inspection covers every function and closure in
// it, and the recovered-object map stays correct across functions because
// each scope's variables are distinct objects.
func checkRecoverPut(pass *Pass, root ast.Node) {
	info := pass.TypesInfo
	// Objects holding a recover() result.
	recovered := map[types.Object]bool{}
	var record func(s ast.Stmt)
	record = func(s ast.Stmt) {
		as, ok := s.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return
		}
		if !isRecoverCall(ast.Unparen(as.Rhs[0])) {
			return
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				recovered[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				recovered[obj] = true
			}
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok {
			record(s)
			if ifs, ok := s.(*ast.IfStmt); ok && ifs.Init != nil {
				record(ifs.Init)
			}
		}
		return true
	})

	// testsRecover classifies cond: +1 when true means "panicking"
	// (recover result != nil), -1 when true means "not panicking".
	testsRecover := func(cond ast.Expr) int {
		bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
			return 0
		}
		isRec := func(e ast.Expr) bool {
			e = ast.Unparen(e)
			if isRecoverCall(e) {
				return true
			}
			id, ok := e.(*ast.Ident)
			return ok && recovered[info.Uses[id]]
		}
		isNil := func(e ast.Expr) bool {
			id, ok := ast.Unparen(e).(*ast.Ident)
			return ok && id.Name == "nil"
		}
		switch {
		case isRec(bin.X) && isNil(bin.Y), isNil(bin.X) && isRec(bin.Y):
			if bin.Op == token.NEQ {
				return 1
			}
			return -1
		}
		return 0
	}

	flagPuts := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, ok := methodCall(info, call, "ScratchPool", "Put"); ok {
				pass.Reportf(call.Pos(), "pooled scratch repooled on a panic path: a scratch abandoned mid-traversal may hold poisoned marks; quarantine it (skip the Put) instead")
			}
			return true
		})
	}
	ast.Inspect(root, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		switch testsRecover(ifs.Cond) {
		case 1: // body runs when panicking
			flagPuts(ifs.Body)
		case -1: // else runs when panicking
			flagPuts(ifs.Else)
		}
		return true
	})
}

// isRecoverCall matches a call to the recover builtin.
func isRecoverCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "recover"
}
