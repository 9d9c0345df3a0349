package serve

// appendIndent appends src, a compact JSON document as json.Marshal
// produces it, to dst in the layout json.Indent(dst, src, "", "  ")
// gives: one element per line, two spaces per level, ": " after each
// key, and empty objects and arrays kept as {} and []. Compact input
// holds no insignificant whitespace, so unlike json.Indent it runs no
// scanner: knowing whether a byte lies inside a string is enough, and
// strings are copied verbatim, escapes included.
func appendIndent(dst, src []byte) []byte {
	depth := 0
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

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for i := 0; i < depth; i++ {
		dst = append(dst, "  "...)
	}
	return dst
}
