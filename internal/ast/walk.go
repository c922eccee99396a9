package ast

// eachChild calls visit on every non-nil direct child of n, in syntax
// order — the same children, in the same order, as the XML form's parts
// (TestEachChildMatchesXMLParts), but without building its labelled
// slices: traversal runs on every node of every analysis pass of every
// load, and must not allocate.
func eachChild(n Node, visit func(Node)) {
	one := func(c Node) {
		if c != nil {
			visit(c)
		}
	}
	all := func(cs []Node) {
		for _, c := range cs {
			one(c)
		}
	}
	switch x := n.(type) {
	case *IntLit, *RealLit, *StrLit, *CsetLit, *Keyword, *Ident, *TmpRef,
		*Fail, *NextStmt, *RecordDecl, *GlobalDecl:
		// leaves
	case *ListLit:
		all(x.Elems)
	case *Binary:
		one(x.L)
		one(x.R)
	case *Unary:
		one(x.X)
	case *ToBy:
		one(x.Lo)
		one(x.Hi)
		one(x.By)
	case *Call:
		one(x.Fun)
		all(x.Args)
	case *NativeCall:
		one(x.Recv)
		all(x.Args)
	case *Index:
		one(x.X)
		one(x.I)
	case *Slice:
		one(x.X)
		one(x.I)
		one(x.J)
	case *Field:
		one(x.X)
	case *If:
		one(x.Cond)
		one(x.Then)
		one(x.Else)
	case *While:
		one(x.Cond)
		one(x.Body)
	case *Every:
		one(x.E)
		one(x.Body)
	case *Repeat:
		one(x.Body)
	case *Case:
		one(x.Subject)
		for _, cl := range x.Clauses {
			one(cl.Sel)
			one(cl.Body)
		}
	case *Block:
		all(x.Stmts)
	case *Return:
		one(x.E)
	case *Suspend:
		one(x.E)
		one(x.Body)
	case *Break:
		one(x.E)
	case *Initial:
		one(x.Body)
	case *VarDecl:
		all(x.Inits)
	case *ProcDecl:
		if x.Body != nil {
			visit(x.Body)
		}
	case *ClassDecl:
		for _, m := range x.Methods {
			if m != nil {
				visit(m)
			}
		}
	case *Program:
		all(x.Decls)
	case *BindIn:
		one(x.E)
	case *FlatProduct:
		all(x.Terms)
	}
}

// Children returns a node's direct children in syntax order (nil children
// omitted) — for analysis passes that need custom recursion.
func Children(n Node) []Node {
	var out []Node
	if n != nil {
		eachChild(n, func(c Node) { out = append(out, c) })
	}
	return out
}

// EachChild calls visit on n's direct children in syntax order (nil
// children omitted), without allocating — for passes that recurse with a
// context of their own.
func EachChild(n Node, visit func(Node)) { eachChild(n, visit) }

// Walk applies f to n and every descendant in pre-order; f returning false
// prunes the subtree.
func Walk(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	eachChild(n, func(c Node) { Walk(c, f) })
}
