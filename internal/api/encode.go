package api

import (
	"encoding/json"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/regset"
)

// AppendDoc appends the analysis document RenderDoc(version, a,
// metrics), with Opt set to opt, to dst in exactly the bytes
// json.MarshalIndent(doc, "", "  ") gives, nested depth levels deep:
// every line after the first is indented by depth further levels, as
// when the document is the value of a field of an indented envelope.
//
// The routine summaries, the bulk of the document, are written
// straight from the analysis: register sets by name, with no
// intermediate strings and no escape scan, since register names hold
// no byte JSON escapes. The small blocks (stats, metrics, incremental,
// opt) go through json.Marshal and AppendIndent.
func AppendDoc(dst []byte, version string, a *core.Analysis, metrics obs.Snapshot, opt *OptReport, depth int) ([]byte, error) {
	dst = slices.Grow(dst, docSizeHint(a))
	dst = append(dst, '{')
	dst = appendKey(dst, depth+1, "schema_version")
	dst = appendString(dst, version)
	dst = append(dst, ',')
	dst = appendKey(dst, depth+1, "routines")
	dst = appendRoutines(dst, a, depth+1)
	var err error
	if dst, err = appendField(dst, depth+1, "stats", StatsOf(&a.Stats)); err != nil {
		return dst, err
	}
	if dst, err = appendField(dst, depth+1, "metrics", metrics); err != nil {
		return dst, err
	}
	if version != SchemaVersion && a.Incremental != nil {
		if dst, err = appendField(dst, depth+1, "incremental", IncrementalInfoOf(a.Incremental)); err != nil {
			return dst, err
		}
	}
	if opt != nil {
		if dst, err = appendField(dst, depth+1, "opt", opt); err != nil {
			return dst, err
		}
	}
	dst = appendNewline(dst, depth)
	return append(dst, '}'), nil
}

// docSizeHint estimates the size of a's document at a shallow depth,
// so that AppendDoc seldom grows its buffer more than once. It counts
// each register of a set at five bytes, name and separator, which only
// "zero" and "fzero" exceed, and leaves 8 KB for the blocks that are
// not summaries.
func docSizeHint(a *core.Analysis) int {
	set := func(s regset.Set) int { return 32 + 5*s.Len() } // the set's line
	n := 8 << 10
	for ri, r := range a.Prog.Routines {
		s := a.Summary(ri)
		n += 160 + len(r.Name) + set(s.SavedRestored)
		for e := range s.CallUsed {
			n += 32 + set(s.CallUsed[e]) + set(s.CallDefined[e]) + set(s.CallKilled[e]) + set(s.LiveAtEntry[e])
		}
		for x := range s.LiveAtExit {
			n += 64 + set(s.LiveAtExit[x])
		}
	}
	return n
}

// appendField appends a comma and the field key, on a new line at
// depth, holding v as json.Marshal encodes it, indented.
func appendField(dst []byte, depth int, key string, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	dst = append(dst, ',')
	dst = appendKey(dst, depth, key)
	return AppendIndent(dst, data, depth), nil
}

// appendRoutines appends the "routines" array of SummaryOf renderings,
// opening at depth.
func appendRoutines(dst []byte, a *core.Analysis, depth int) []byte {
	if len(a.Prog.Routines) == 0 {
		return append(dst, "[]"...)
	}
	cg := a.CallGraph()
	dst = append(dst, '[')
	for ri, r := range a.Prog.Routines {
		if ri > 0 {
			dst = append(dst, ',')
		}
		s := a.Summary(ri)
		dst = appendNewline(dst, depth+1)
		dst = append(dst, '{')
		dst = appendKey(dst, depth+2, "routine")
		dst = appendString(dst, r.Name)
		dst = append(dst, ',')
		dst = appendKey(dst, depth+2, "component")
		dst = strconv.AppendInt(dst, int64(cg.Component(ri)), 10)
		dst = append(dst, ',')
		dst = appendKey(dst, depth+2, "entries")
		dst = appendArray(dst, depth+2, len(s.CallUsed), func(dst []byte, e int) []byte {
			dst = appendSetField(dst, depth+4, "call_used", s.CallUsed[e])
			dst = append(dst, ',')
			dst = appendSetField(dst, depth+4, "call_defined", s.CallDefined[e])
			dst = append(dst, ',')
			dst = appendSetField(dst, depth+4, "call_killed", s.CallKilled[e])
			dst = append(dst, ',')
			return appendSetField(dst, depth+4, "live_at_entry", s.LiveAtEntry[e])
		})
		dst = append(dst, ',')
		dst = appendKey(dst, depth+2, "exits")
		dst = appendArray(dst, depth+2, len(s.LiveAtExit), func(dst []byte, x int) []byte {
			dst = appendKey(dst, depth+4, "block")
			dst = strconv.AppendInt(dst, int64(s.ExitBlocks[x]), 10)
			dst = append(dst, ',')
			return appendSetField(dst, depth+4, "live_at_exit", s.LiveAtExit[x])
		})
		if !s.SavedRestored.IsEmpty() {
			dst = append(dst, ',')
			dst = appendSetField(dst, depth+2, "saved_restored", s.SavedRestored)
		}
		dst = appendNewline(dst, depth+1)
		dst = append(dst, '}')
	}
	dst = appendNewline(dst, depth)
	return append(dst, ']')
}

// appendArray appends an array, opening at depth, of n objects whose
// fields elem appends.
func appendArray(dst []byte, depth, n int, elem func(dst []byte, i int) []byte) []byte {
	if n == 0 {
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendNewline(dst, depth+1)
		dst = append(dst, '{')
		dst = elem(dst, i)
		dst = appendNewline(dst, depth+1)
		dst = append(dst, '}')
	}
	dst = appendNewline(dst, depth)
	return append(dst, ']')
}

// appendKey starts a field on a new line at depth: `"key": `. Every
// key this file writes is a plain identifier.
func appendKey(dst []byte, depth int, key string) []byte {
	dst = appendNewline(dst, depth)
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, `": `...)
}

// appendSetField appends a field whose value is s in the paper's
// notation, the string Set.String gives.
func appendSetField(dst []byte, depth int, key string, s regset.Set) []byte {
	dst = appendKey(dst, depth, key)
	dst = append(dst, '"')
	dst = s.AppendTo(dst)
	return append(dst, '"')
}

// appendString appends s as a JSON string. A string holding any byte
// encoding/json would escape — quotes, backslashes, control bytes,
// "<", ">" and "&", and every non-ASCII byte, where it replaces
// invalid UTF-8 and escapes U+2028 and U+2029 — goes through
// encoding/json itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// Marshaling a string cannot fail.
			quoted, _ := json.Marshal(s)
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendIndent appends src, a compact JSON document as json.Marshal
// produces it, to dst in the layout json.Indent(dst, src, prefix, "  ")
// gives with prefix depth levels of indentation: one element per line,
// two spaces per level, ": " after each key, and empty objects and
// arrays kept as {} and []. At depth 0 that is json.MarshalIndent(v,
// "", "  "); at depth d it is the same value as a field d levels deep
// in an indented document. Compact input holds no insignificant
// whitespace, so unlike json.Indent it runs no scanner: knowing whether
// a byte lies inside a string is enough, and strings are copied
// verbatim, escapes included.
func AppendIndent(dst, src []byte, depth int) []byte {
	opened := false // the last byte opened an object or array
	for i := 0; i < len(src); i++ {
		c := src[i]
		if opened && c != '}' && c != ']' {
			opened = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '"':
			end := stringEnd(src, i)
			dst = append(dst, src[i:end]...)
			i = end - 1
		case '{', '[':
			opened = true
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			dst = appendNewline(dst, depth)
		case ':':
			dst = append(dst, c, ' ')
		case '}', ']':
			if opened {
				opened = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// stringEnd returns the index just past the string literal that opens
// at src[i], or len(src) if it never closes.
func stringEnd(src []byte, i int) int {
	for j := i + 1; j < len(src); j++ {
		switch src[j] {
		case '\\':
			j++ // the escaped byte cannot close the string
		case '"':
			return j + 1
		}
	}
	return len(src)
}

// indentation holds the spaces of the indentation levels documents
// usually reach; deeper lines are indented level by level.
const indentation = "                                "

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	if n := 2 * depth; n <= len(indentation) {
		return append(dst, indentation[:n]...)
	}
	for i := 0; i < depth; i++ {
		dst = append(dst, "  "...)
	}
	return dst
}
