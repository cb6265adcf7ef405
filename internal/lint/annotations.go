package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation escape hatch: a finding is suppressed by a comment of the form
//
//	//bytecard:<name>-ok <reason>
//
// on the offending line or the line directly above it, where <name> is the
// analyzer's annotation key (e.g. unordered, directcall, rand, lock).
// The reason is mandatory: an annotation without one is itself reported, so
// every suppression in the tree documents why the invariant may be waived.
const annotationPrefix = "//bytecard:"

// annotation is one parsed suppression comment.
type annotation struct {
	name   string // e.g. "unordered"
	reason string
	pos    token.Pos
}

// fileAnnotations maps line number → annotations ending on that line.
type fileAnnotations map[int][]annotation

// parseAnnotation parses one comment, returning ok=false for ordinary
// comments. Accepted shape: "//bytecard:<name>-ok[ reason]".
func parseAnnotation(c *ast.Comment) (annotation, bool) {
	text := c.Text
	if !strings.HasPrefix(text, annotationPrefix) {
		return annotation{}, false
	}
	rest := strings.TrimPrefix(text, annotationPrefix)
	body, reason, _ := strings.Cut(rest, " ")
	name, isOK := strings.CutSuffix(strings.TrimSpace(body), "-ok")
	if !isOK || name == "" {
		return annotation{}, false
	}
	return annotation{name: name, reason: strings.TrimSpace(reason), pos: c.Pos()}, true
}

// indexAnnotations scans every comment of every file once, building the
// per-file line index the suppression check reads.
func indexAnnotations(fset *token.FileSet, files []*ast.File) map[*ast.File]fileAnnotations {
	out := make(map[*ast.File]fileAnnotations, len(files))
	for _, f := range files {
		fa := fileAnnotations{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				a, ok := parseAnnotation(c)
				if !ok {
					continue
				}
				line := fset.Position(c.End()).Line
				fa[line] = append(fa[line], a)
			}
		}
		if len(fa) > 0 {
			out[f] = fa
		}
	}
	return out
}

// Suppressed reports whether a finding of the given annotation key at pos is
// waived by a //bytecard:<name>-ok annotation on the same line or the line
// above. An annotation with an empty reason does not suppress; instead the
// analyzer should let the finding stand so the missing justification is
// visible. MissingReason reports that case.
func (p *Pass) Suppressed(name string, pos token.Pos) bool {
	a, ok := p.annotationFor(name, pos)
	return ok && a.reason != ""
}

// MissingReason reports whether pos carries a matching annotation whose
// reason text is empty (annotation present but undocumented).
func (p *Pass) MissingReason(name string, pos token.Pos) bool {
	a, ok := p.annotationFor(name, pos)
	return ok && a.reason == ""
}

func (p *Pass) annotationFor(name string, pos token.Pos) (annotation, bool) {
	f := p.fileForPos(pos)
	if f == nil {
		return annotation{}, false
	}
	fa := p.annotations[f]
	if fa == nil {
		return annotation{}, false
	}
	line := p.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, a := range fa[l] {
			if a.name == name {
				return a, true
			}
		}
	}
	return annotation{}, false
}
