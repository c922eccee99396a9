package junicon

import (
	"fmt"
	"io"
	"strings"

	"junicon/internal/interp"
	"junicon/internal/meta"
	"junicon/internal/translate"
)

// Mixed-language embedding (§4): scoped annotations delimit Junicon
// regions inside a host-language file; the metaparser extracts them
// without parsing the host grammar; regions are interpreted (or
// translated) and host text passes through untouched.

// Interp is a Junicon interpreter instance: global scope, builtin library
// and native-function registry.
type Interp = interp.Interp

// NewInterp returns an interpreter with the builtin library loaded; output
// of write()/writes() goes to w (nil selects standard output). Loaded
// procedures, top-level statements and evaluated expressions run as
// slot-framed bytecode in the vm package's resumable frames, every unit
// of them: the compiler refuses only a construct its Env cannot serve (no
// scan environment, DefineGlobal or native table), and the interpreter's
// Env lacks none. A form the tree walk raises on raises its error.
func NewInterp(w io.Writer) *Interp {
	if w == nil {
		return interp.New(interp.WithVM())
	}
	return interp.New(interp.WithOutput(w), interp.WithVM())
}

// Region is a scoped annotation found in a mixed-language source.
type Region = meta.Region

// ParseMixed decomposes a mixed-language source into host text and scoped
// annotation regions.
func ParseMixed(src string) ([]meta.Segment, error) { return meta.Parse(src) }

// Regions returns the top-level annotation regions of a mixed source.
func Regions(segs []meta.Segment) []*Region { return meta.Regions(segs) }

// RenderMixed reassembles a mixed source, transforming each region with tr
// (nil reproduces the original text).
func RenderMixed(segs []meta.Segment, tr func(*Region) (string, error)) (string, error) {
	return meta.Render(segs, tr)
}

// LoadMixed extracts every @<script lang="junicon"> region from a
// mixed-language source and loads it into the interpreter: declarations
// are defined, top-level statements executed. Host text and regions in
// other languages are ignored (they belong to the host toolchain).
func LoadMixed(in *Interp, src string) error {
	segs, err := meta.Parse(src)
	if err != nil {
		return err
	}
	return loadRegions(in, segs)
}

func loadRegions(in *Interp, segs []meta.Segment) error {
	for _, r := range meta.Regions(segs) {
		if !isJunicon(r) {
			continue
		}
		// Nested host regions inside a junicon region are not executable
		// here; reject rather than silently dropping code.
		for _, inner := range meta.Regions(r.Segments) {
			if !isJunicon(inner) {
				return fmt.Errorf("junicon: region at line %d nests a %q region; nested host regions require the translator", r.Line, inner.Lang())
			}
		}
		if err := in.LoadProgram(r.Raw); err != nil {
			return fmt.Errorf("junicon: region at line %d: %w", r.Line, err)
		}
	}
	return nil
}

func isJunicon(r *Region) bool {
	lang := strings.ToLower(r.Lang())
	return lang == "junicon" || lang == "unicon" || lang == "icon"
}

// TranslateOptions configures code generation.
type TranslateOptions = translate.Options

// Translate emits Go source for a Junicon program — the migration of §5,
// producing code in the image of Figure 5 (reified parameters, shadowed
// co-expression environments, compositions of kernel constructors).
func Translate(src string, opts TranslateOptions) (string, error) {
	return translate.TranslateProgram(src, opts)
}

// TranslateMixed translates every junicon region of a mixed-language
// source into one Go file (regions are concatenated in order, as they
// share one global scope).
func TranslateMixed(src string, opts TranslateOptions) (string, error) {
	segs, err := meta.Parse(src)
	if err != nil {
		return "", err
	}
	var program strings.Builder
	for _, r := range meta.Regions(segs) {
		if isJunicon(r) {
			program.WriteString(r.Raw)
			program.WriteString("\n")
		}
	}
	return translate.TranslateProgram(program.String(), opts)
}
