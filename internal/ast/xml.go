package ast

import (
	"fmt"
	"strings"
)

// ToXML serializes a node to the XML term form (§6: the Unicon parser
// "emits XML"). Indentation is two spaces per depth level; nil children are
// omitted.
func ToXML(n Node) string {
	var b strings.Builder
	writeXML(&b, n, 0)
	return b.String()
}

func writeXML(b *strings.Builder, n Node, depth int) {
	if n == nil {
		return
	}
	ind := strings.Repeat("  ", depth)
	attrs, children := parts(n)
	b.WriteString(ind)
	b.WriteByte('<')
	b.WriteString(n.xmlName())
	for _, a := range attrs {
		fmt.Fprintf(b, " %s=%q", a.k, a.v)
	}
	empty := true
	for _, c := range children {
		if c.node != nil {
			empty = false
			break
		}
	}
	if empty {
		b.WriteString("/>\n")
		return
	}
	b.WriteString(">\n")
	for _, c := range children {
		if c.node == nil {
			continue
		}
		if c.label != "" {
			fmt.Fprintf(b, "%s  <%s>\n", ind, c.label)
			writeXML(b, c.node, depth+2)
			fmt.Fprintf(b, "%s  </%s>\n", ind, c.label)
		} else {
			writeXML(b, c.node, depth+1)
		}
	}
	fmt.Fprintf(b, "%s</%s>\n", ind, n.xmlName())
}

type attr struct{ k, v string }

type child struct {
	label string
	node  Node
}

// parts decomposes a node into XML attributes and labelled children.
func parts(n Node) ([]attr, []child) {
	switch x := n.(type) {
	case *IntLit:
		return []attr{{"value", x.Text}}, nil
	case *RealLit:
		return []attr{{"value", x.Text}}, nil
	case *StrLit:
		return []attr{{"value", x.Value}}, nil
	case *CsetLit:
		return []attr{{"value", x.Value}}, nil
	case *Keyword:
		return []attr{{"name", x.Name}}, nil
	case *Ident:
		return []attr{{"name", x.Name}}, nil
	case *TmpRef:
		return []attr{{"name", x.Name}}, nil
	case *ListLit:
		cs := make([]child, len(x.Elems))
		for i, e := range x.Elems {
			cs[i] = child{node: e}
		}
		return nil, cs
	case *Binary:
		return []attr{{"op", x.Op}}, []child{{node: x.L}, {node: x.R}}
	case *Unary:
		return []attr{{"op", x.Op}}, []child{{node: x.X}}
	case *ToBy:
		return nil, []child{{"lo", x.Lo}, {"hi", x.Hi}, {"by", x.By}}
	case *Call:
		cs := []child{{"fun", x.Fun}}
		for _, a := range x.Args {
			cs = append(cs, child{"arg", a})
		}
		return nil, cs
	case *NativeCall:
		cs := []child{}
		if x.Recv != nil {
			cs = append(cs, child{"recv", x.Recv})
		}
		for _, a := range x.Args {
			cs = append(cs, child{"arg", a})
		}
		return []attr{{"name", x.Name}}, cs
	case *Index:
		return nil, []child{{node: x.X}, {node: x.I}}
	case *Slice:
		return nil, []child{{node: x.X}, {"from", x.I}, {"to", x.J}}
	case *Field:
		return []attr{{"name", x.Name}}, []child{{node: x.X}}
	case *If:
		return nil, []child{{"cond", x.Cond}, {"then", x.Then}, {"else", x.Else}}
	case *While:
		kind := "while"
		if x.Until {
			kind = "until"
		}
		return []attr{{"kind", kind}}, []child{{"cond", x.Cond}, {"do", x.Body}}
	case *Every:
		return nil, []child{{"gen", x.E}, {"do", x.Body}}
	case *Repeat:
		return nil, []child{{node: x.Body}}
	case *Case:
		cs := []child{{"subject", x.Subject}}
		for _, cl := range x.Clauses {
			if cl.Sel == nil {
				cs = append(cs, child{"default", cl.Body})
			} else {
				cs = append(cs, child{"sel", cl.Sel}, child{"body", cl.Body})
			}
		}
		return nil, cs
	case *Block:
		cs := make([]child, len(x.Stmts))
		for i, s := range x.Stmts {
			cs[i] = child{node: s}
		}
		return nil, cs
	case *Return:
		return nil, []child{{node: x.E}}
	case *Suspend:
		return nil, []child{{node: x.E}, {"do", x.Body}}
	case *Fail, *NextStmt:
		return nil, nil
	case *Break:
		return nil, []child{{node: x.E}}
	case *Initial:
		return nil, []child{{node: x.Body}}
	case *VarDecl:
		attrs := []attr{{"kind", x.Kind}, {"names", strings.Join(x.Names, ",")}}
		var cs []child
		for i, init := range x.Inits {
			if init != nil {
				cs = append(cs, child{"init-" + x.Names[i], init})
			}
		}
		return attrs, cs
	case *ProcDecl:
		return []attr{{"name", x.Name}, {"params", strings.Join(x.Params, ",")}},
			[]child{{node: x.Body}}
	case *RecordDecl:
		return []attr{{"name", x.Name}, {"fields", strings.Join(x.Fields, ",")}}, nil
	case *GlobalDecl:
		return []attr{{"names", strings.Join(x.Names, ",")}}, nil
	case *ClassDecl:
		cs := make([]child, len(x.Methods))
		for i, m := range x.Methods {
			cs[i] = child{node: m}
		}
		return []attr{{"name", x.Name}, {"fields", strings.Join(x.Fields, ",")}}, cs
	case *Program:
		cs := make([]child, len(x.Decls))
		for i, d := range x.Decls {
			cs[i] = child{node: d}
		}
		return nil, cs
	case *BindIn:
		return []attr{{"tmp", x.Tmp}}, []child{{node: x.E}}
	case *FlatProduct:
		cs := make([]child, len(x.Terms))
		for i, t := range x.Terms {
			cs[i] = child{node: t}
		}
		return nil, cs
	default:
		return []attr{{"unknown", fmt.Sprintf("%T", n)}}, nil
	}
}
