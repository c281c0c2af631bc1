// Corpus that parses but does not type-check: loading it must fail instead
// of handing the checks partial type information.
package broken

func f() int {
	return "not an int"
}
