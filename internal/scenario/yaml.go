// Package scenario is the declarative scenario harness: a YAML DSL for
// full-stack failure scenarios (fleet definition, a timed event timeline,
// and assertions) plus a runner that drives nfvsim → ingest.Server →
// sharded Monitor (→ lifecycle) → eval end-to-end and checks the declared
// assertions. See the repository README's "Scenario harness" section for
// the DSL reference and DESIGN.md §16 for the architecture.
//
// The module is dependency-free, so this file implements the YAML subset
// the DSL needs by hand: block mappings and sequences, compact "- key: v"
// sequence entries, flow lists ("[a, b]"), single- and double-quoted
// scalars, and "#" comments. Anchors, multi-line scalars, flow mappings,
// and tab indentation are rejected with positioned errors.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// yKind discriminates parsed YAML nodes.
type yKind int

const (
	yScalar yKind = iota
	yMap
	ySeq
)

// yNode is one parsed YAML value, tagged with its source line for error
// messages (the validate lint reports "file:line: message").
type yNode struct {
	line    int
	kind    yKind
	scalar  string
	entries []yEntry
	items   []*yNode
}

// yEntry is one mapping entry, in document order.
type yEntry struct {
	key  string
	line int
	val  *yNode
}

// yLine is one significant source line.
type yLine struct {
	num    int
	indent int
	text   string
}

// yParser consumes the significant lines of a document.
type yParser struct {
	lines []yLine
	pos   int
}

// parseYAML parses a document into its root mapping.
func parseYAML(src []byte) (*yNode, error) {
	lines, err := splitLines(string(src))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("line 1: empty document")
	}
	p := &yParser{lines: lines}
	root, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("line %d: unexpected indentation (outdent below document root?)", l.num)
	}
	if root.kind != yMap {
		return nil, fmt.Errorf("line %d: document root must be a mapping", lines[0].num)
	}
	return root, nil
}

// splitLines strips comments and blanks, computes indents, rejects tabs.
func splitLines(src string) ([]yLine, error) {
	var out []yLine
	for i, raw := range strings.Split(src, "\n") {
		num := i + 1
		if strings.Contains(raw[:len(raw)-len(strings.TrimLeft(raw, " \t"))], "\t") {
			return nil, fmt.Errorf("line %d: tab in indentation (use spaces)", num)
		}
		text := stripComment(raw)
		trimmed := strings.TrimRight(text, " \r")
		body := strings.TrimLeft(trimmed, " ")
		if body == "" || body == "---" {
			continue
		}
		out = append(out, yLine{num: num, indent: len(trimmed) - len(body), text: body})
	}
	return out, nil
}

// stripComment removes a trailing "#"-comment, respecting quoted spans.
func stripComment(s string) string {
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\'' && !inD:
			inS = !inS
		case c == '"' && !inS:
			// Skip escaped quotes inside double-quoted spans.
			if inD && i > 0 && s[i-1] == '\\' {
				continue
			}
			inD = !inD
		case c == '#' && !inS && !inD:
			if i == 0 || s[i-1] == ' ' {
				return s[:i]
			}
		}
	}
	return s
}

// parseBlock parses the mapping or sequence starting at the current line,
// which must sit at exactly the given indent.
func (p *yParser) parseBlock(indent int) (*yNode, error) {
	l := p.lines[p.pos]
	if l.indent != indent {
		return nil, fmt.Errorf("line %d: bad indentation (got %d spaces, expected %d)", l.num, l.indent, indent)
	}
	if l.text == "-" || strings.HasPrefix(l.text, "- ") {
		return p.parseSeq(indent)
	}
	return p.parseMap(indent)
}

// parseMap parses consecutive "key: value" lines at the given indent.
func (p *yParser) parseMap(indent int) (*yNode, error) {
	node := &yNode{line: p.lines[p.pos].num, kind: yMap}
	seen := make(map[string]int)
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent {
			if l.indent > indent {
				return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
			}
			break
		}
		if l.text == "-" || strings.HasPrefix(l.text, "- ") {
			return nil, fmt.Errorf("line %d: sequence item inside a mapping", l.num)
		}
		key, rest, err := splitKey(l)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key %q (first on line %d)", l.num, key, prev)
		}
		seen[key] = l.num
		p.pos++
		var val *yNode
		if rest != "" {
			val, err = scalarNode(rest, l.num)
		} else {
			val, err = p.nested(l.num, indent)
		}
		if err != nil {
			return nil, err
		}
		node.entries = append(node.entries, yEntry{key: key, line: l.num, val: val})
	}
	return node, nil
}

// parseSeq parses consecutive "- item" lines at the given indent.
func (p *yParser) parseSeq(indent int) (*yNode, error) {
	node := &yNode{line: p.lines[p.pos].num, kind: ySeq}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent || !(l.text == "-" || strings.HasPrefix(l.text, "- ")) {
			if l.indent > indent {
				return nil, fmt.Errorf("line %d: unexpected indentation", l.num)
			}
			break
		}
		rest := strings.TrimLeft(l.text[1:], " ")
		var item *yNode
		var err error
		switch {
		case rest == "":
			// "-" alone: nested block on the following deeper lines.
			p.pos++
			item, err = p.nested(l.num, indent)
		case isMappingStart(rest):
			// Compact entry: "- key: v" opens a mapping whose further keys
			// sit at the column where "key" starts.
			childIndent := l.indent + (len(l.text) - len(rest))
			p.lines[p.pos] = yLine{num: l.num, indent: childIndent, text: rest}
			item, err = p.parseMap(childIndent)
		default:
			p.pos++
			item, err = scalarNode(rest, l.num)
		}
		if err != nil {
			return nil, err
		}
		node.items = append(node.items, item)
	}
	return node, nil
}

// nested parses the block on the lines after line num that sit deeper
// than indent; with none, the value on line num is an empty scalar.
func (p *yParser) nested(num, indent int) (*yNode, error) {
	if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
		return p.parseBlock(p.lines[p.pos].indent)
	}
	return &yNode{line: num, kind: yScalar}, nil
}

// isMappingStart reports whether a sequence item body opens a mapping.
func isMappingStart(s string) bool {
	if strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "'") || strings.HasPrefix(s, "[") {
		return false
	}
	if strings.HasSuffix(s, ":") {
		return !strings.Contains(s[:len(s)-1], " ")
	}
	i := strings.Index(s, ": ")
	return i > 0 && !strings.Contains(s[:i], " ")
}

// splitKey splits "key: value" / "key:", validating the key.
func splitKey(l yLine) (key, rest string, err error) {
	s := l.text
	if strings.HasSuffix(s, ":") && !strings.Contains(s[:len(s)-1], ": ") {
		key = s[:len(s)-1]
	} else if i := strings.Index(s, ": "); i > 0 {
		key, rest = s[:i], strings.TrimSpace(s[i+2:])
	} else {
		return "", "", fmt.Errorf("line %d: expected \"key: value\", got %q", l.num, s)
	}
	key = strings.TrimSpace(key)
	if key == "" {
		return "", "", fmt.Errorf("line %d: empty mapping key", l.num)
	}
	if strings.ContainsAny(key, "\"'[]{}") {
		return "", "", fmt.Errorf("line %d: unsupported key syntax %q", l.num, key)
	}
	return key, rest, nil
}

// scalarNode builds a scalar (or flow-list) node from an inline value.
func scalarNode(s string, line int) (*yNode, error) {
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("line %d: unterminated flow list %q", line, s)
		}
		node := &yNode{line: line, kind: ySeq}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		if inner == "" {
			return node, nil
		}
		for _, part := range strings.Split(inner, ",") {
			item, err := scalarNode(strings.TrimSpace(part), line)
			if err != nil {
				return nil, err
			}
			if item.kind != yScalar {
				return nil, fmt.Errorf("line %d: nested flow lists are not supported", line)
			}
			node.items = append(node.items, item)
		}
		return node, nil
	}
	if strings.HasPrefix(s, "{") {
		return nil, fmt.Errorf("line %d: flow mappings ({...}) are not supported; use block form", line)
	}
	switch {
	case strings.HasPrefix(s, "\""):
		unq, err := strconv.Unquote(s)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad quoted scalar %s: %v", line, s, err)
		}
		return &yNode{line: line, kind: yScalar, scalar: unq}, nil
	case strings.HasPrefix(s, "'"):
		if len(s) < 2 || !strings.HasSuffix(s, "'") {
			return nil, fmt.Errorf("line %d: unterminated single-quoted scalar %s", line, s)
		}
		return &yNode{line: line, kind: yScalar, scalar: strings.ReplaceAll(s[1:len(s)-1], "''", "'")}, nil
	case strings.HasPrefix(s, "|") || strings.HasPrefix(s, ">") || strings.HasPrefix(s, "&") || strings.HasPrefix(s, "*"):
		return nil, fmt.Errorf("line %d: unsupported YAML feature in %q (block scalars and anchors are out of the subset)", line, s)
	}
	return &yNode{line: line, kind: yScalar, scalar: s}, nil
}
