package ast

// XMLChildren is the traversal audit's view (package ast_test, with the
// exemplars) of the XML form's decomposition, to compare the visitor with:
// it lists the non-nil child nodes of the XML form, in order.
func XMLChildren(n Node) []Node {
	_, cs := parts(n)
	var out []Node
	for _, c := range cs {
		if c.node != nil {
			out = append(out, c.node)
		}
	}
	return out
}
