// Package tcl implements the small Tcl subset needed to evaluate SDC
// (Synopsys Design Constraints) scripts: command parsing, brace and quote
// words, nested [command] substitution, $variable substitution, comments,
// backslash line continuation, and Tcl list handling.
//
// The interpreter is deliberately minimal — SDC files are Tcl scripts that
// consist almost entirely of straight command invocations with bracketed
// object queries, plus the occasional variable and expr. Everything a value
// touches is a string, exactly as in Tcl.
package tcl

import (
	"errors"
	"fmt"
	"strings"
)

// Command is the implementation of a Tcl command. It receives the fully
// substituted argument words (not including the command name) and returns
// the command result.
type Command func(i *Interp, args []string) (string, error)

// Interp is a Tcl interpreter instance. The zero value is not usable; call
// New.
type Interp struct {
	vars map[string]string
	cmds map[string]Command

	// Line is the 1-based line number of the command currently being
	// evaluated, for error reporting by registered commands.
	Line int

	// MaxSteps bounds the total number of command invocations per
	// top-level Eval, guarding against runaway loops in untrusted
	// scripts. 0 means unlimited.
	MaxSteps int
	// MaxDepth bounds Eval nesting (bracket substitution, control-flow
	// bodies, proc calls). 0 uses DefaultMaxDepth.
	MaxDepth int

	steps int
	depth int
}

// DefaultMaxDepth is the Eval nesting bound used when MaxDepth is 0. Real
// SDC scripts nest a handful of levels; the bound exists so pathological
// input exhausts a counter instead of the goroutine stack.
const DefaultMaxDepth = 100

// ErrTooDeep reports Eval nesting beyond MaxDepth.
var ErrTooDeep = errors.New("evaluation nested too deeply")

// ErrStepBudget reports a script exceeding MaxSteps command invocations.
var ErrStepBudget = errors.New("script exceeded its evaluation step budget")

// New returns an interpreter with the built-in commands registered: set,
// unset, list, concat, expr, puts, and the control-flow subset real SDC
// scripts use (if/elseif/else, foreach, while, for, proc, break,
// continue, return, incr — see control.go).
func New() *Interp {
	i := &Interp{
		vars: make(map[string]string),
		cmds: make(map[string]Command),
	}
	i.Register("set", cmdSet)
	i.Register("unset", cmdUnset)
	i.Register("list", cmdList)
	i.Register("expr", cmdExpr)
	i.Register("puts", cmdPuts)
	i.Register("concat", cmdConcat)
	if registerControl != nil {
		registerControl(i)
	}
	return i
}

// Register installs or replaces a command.
func (i *Interp) Register(name string, c Command) { i.cmds[name] = c }

// SetVar sets a variable.
func (i *Interp) SetVar(name, value string) { i.vars[name] = value }

// Var returns a variable's value and whether it exists.
func (i *Interp) Var(name string) (string, bool) {
	v, ok := i.vars[name]
	return v, ok
}

// Error wraps an error with the script line it occurred on.
type Error struct {
	Line int
	Err  error
}

func (e *Error) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }

// Unwrap returns the underlying error.
func (e *Error) Unwrap() error { return e.Err }

// Eval evaluates a script and returns the result of the last command.
func (i *Interp) Eval(script string) (string, error) {
	maxDepth := i.MaxDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	if i.depth >= maxDepth {
		return "", &Error{Line: i.Line, Err: ErrTooDeep}
	}
	if i.depth == 0 {
		i.steps = 0
	}
	i.depth++
	defer func() { i.depth-- }()
	p := &parser{src: script, line: 1}
	result := ""
	for {
		words, line, err := p.nextCommand(i)
		if err != nil {
			return "", &Error{Line: line, Err: err}
		}
		if words == nil {
			return result, nil
		}
		if len(words) == 0 {
			continue
		}
		save := i.Line
		i.Line = line
		result, err = i.invoke(words)
		i.Line = save
		if err != nil {
			if _, ok := err.(*Error); ok {
				return "", err
			}
			return "", &Error{Line: line, Err: err}
		}
	}
}

func (i *Interp) invoke(words []string) (string, error) {
	if i.MaxSteps > 0 {
		i.steps++
		if i.steps > i.MaxSteps {
			return "", ErrStepBudget
		}
	}
	cmd, ok := i.cmds[words[0]]
	if !ok {
		return "", fmt.Errorf("unknown command %q", words[0])
	}
	return cmd(i, words[1:])
}

// parser walks a script, producing one command's substituted words at a
// time.
type parser struct {
	src  string
	pos  int
	line int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte { return p.src[p.pos] }

func (p *parser) advance() byte {
	c := p.src[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
	}
	return c
}

// skipToCommand consumes whitespace, separators and comments until the
// start of the next command. Reports whether a command may follow.
func (p *parser) skipToCommand() bool {
	for !p.eof() {
		c := p.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == ';':
			p.advance()
		case c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n':
			p.advance()
			p.advance()
		case c == '#':
			for !p.eof() && p.peek() != '\n' {
				// A backslash-newline inside a comment continues the
				// comment, per Tcl.
				if p.peek() == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
					p.advance()
				}
				p.advance()
			}
		default:
			return true
		}
	}
	return false
}

// nextCommand parses and substitutes the next command. A nil words slice
// with nil error means end of script.
func (p *parser) nextCommand(i *Interp) (words []string, line int, err error) {
	if !p.skipToCommand() {
		return nil, p.line, nil
	}
	line = p.line
	words = []string{}
	for {
		// Skip intra-command whitespace.
		for !p.eof() {
			c := p.peek()
			if c == ' ' || c == '\t' || c == '\r' {
				p.advance()
				continue
			}
			if c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				p.advance()
				p.advance()
				continue
			}
			break
		}
		if p.eof() {
			return words, line, nil
		}
		c := p.peek()
		if c == '\n' || c == ';' {
			p.advance()
			return words, line, nil
		}
		w, err := p.word(i)
		if err != nil {
			return nil, line, err
		}
		words = append(words, w)
	}
}

// word parses a single word with substitution applied.
func (p *parser) word(i *Interp) (string, error) {
	switch p.peek() {
	case '{':
		return p.braceWord()
	case '"':
		return p.quoteWord(i)
	default:
		return p.bareWord(i)
	}
}

// braceWord parses {...}: no substitution, braces nest.
func (p *parser) braceWord() (string, error) {
	p.advance() // '{'
	depth := 1
	var b strings.Builder
	for !p.eof() {
		c := p.advance()
		switch c {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return b.String(), nil
			}
		case '\\':
			// Backslash-newline inside braces collapses to a space, other
			// backslash sequences are kept verbatim (Tcl brace semantics).
			if !p.eof() && p.peek() == '\n' {
				p.advance()
				b.WriteByte(' ')
				continue
			}
			b.WriteByte(c)
			continue
		}
		if depth > 0 {
			b.WriteByte(c)
		}
	}
	return "", fmt.Errorf("unterminated brace word")
}

// quoteWord parses "..." with $ and [] substitution.
func (p *parser) quoteWord(i *Interp) (string, error) {
	p.advance() // '"'
	var b strings.Builder
	for !p.eof() {
		c := p.peek()
		switch c {
		case '"':
			p.advance()
			return b.String(), nil
		case '$':
			v, err := p.varSubst(i)
			if err != nil {
				return "", err
			}
			b.WriteString(v)
		case '[':
			v, err := p.bracketSubst(i)
			if err != nil {
				return "", err
			}
			b.WriteString(v)
		case '\\':
			s, err := p.backslash()
			if err != nil {
				return "", err
			}
			b.WriteString(s)
		default:
			b.WriteByte(p.advance())
		}
	}
	return "", fmt.Errorf("unterminated quoted word")
}

// bareWord parses an unquoted word with $ and [] substitution.
func (p *parser) bareWord(i *Interp) (string, error) {
	var b strings.Builder
	for !p.eof() {
		c := p.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == ';':
			return b.String(), nil
		case c == '$':
			v, err := p.varSubst(i)
			if err != nil {
				return "", err
			}
			b.WriteString(v)
		case c == '[':
			v, err := p.bracketSubst(i)
			if err != nil {
				return "", err
			}
			b.WriteString(v)
		case c == '\\':
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				return b.String(), nil
			}
			s, err := p.backslash()
			if err != nil {
				return "", err
			}
			b.WriteString(s)
		default:
			b.WriteByte(p.advance())
		}
	}
	return b.String(), nil
}

// backslash consumes a backslash escape and returns its replacement.
func (p *parser) backslash() (string, error) {
	p.advance() // '\'
	if p.eof() {
		return "\\", nil
	}
	c := p.advance()
	switch c {
	case 'n':
		return "\n", nil
	case 't':
		return "\t", nil
	case 'r':
		return "\r", nil
	case '\n':
		return " ", nil
	default:
		return string(c), nil
	}
}

// varSubst consumes $name or ${name} and returns the variable value.
func (p *parser) varSubst(i *Interp) (string, error) {
	p.advance() // '$'
	if p.eof() {
		return "$", nil
	}
	var name string
	if p.peek() == '{' {
		p.advance()
		start := p.pos
		for !p.eof() && p.peek() != '}' {
			p.advance()
		}
		if p.eof() {
			return "", fmt.Errorf("unterminated ${...} variable reference")
		}
		name = p.src[start:p.pos]
		p.advance() // '}'
	} else {
		start := p.pos
		for !p.eof() && isVarChar(p.peek()) {
			p.advance()
		}
		name = p.src[start:p.pos]
	}
	if name == "" {
		return "$", nil
	}
	v, ok := i.vars[name]
	if !ok {
		return "", fmt.Errorf("can't read %q: no such variable", name)
	}
	return v, nil
}

func isVarChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// bracketSubst consumes [script] and returns its evaluation result.
func (p *parser) bracketSubst(i *Interp) (string, error) {
	p.advance() // '['
	start := p.pos
	depth := 1
	inBrace := 0
	for !p.eof() {
		c := p.peek()
		switch c {
		case '{':
			inBrace++
		case '}':
			if inBrace > 0 {
				inBrace--
			}
		case '[':
			if inBrace == 0 {
				depth++
			}
		case ']':
			if inBrace == 0 {
				depth--
				if depth == 0 {
					script := p.src[start:p.pos]
					p.advance() // ']'
					return i.Eval(script)
				}
			}
		}
		p.advance()
	}
	return "", fmt.Errorf("unterminated [ command substitution")
}
