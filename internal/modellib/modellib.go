// Package modellib implements a directory-backed library of characterized
// Hd models — the "characterization database" a team using the paper's
// method accumulates: one JSON file per characterized module instance,
// plus fitted width-regression models per module family, under a single
// root directory with a deterministic layout:
//
//	<root>/models/<module>-w<width>[-enhanced].json
//	<root>/params/<module>-<basis>.json
//
// The library is the persistence layer behind `cmd/hdpower -library`
// workflows: characterize once, estimate forever. Writes are atomic and
// checksummed (internal/atomicio): a crash mid-write never tears a stored
// model, and a torn or tampered file is quarantined on load and reported
// as a typed corruption error instead of parsing as a (wrong) model.
// Files written by older versions — valid JSON without a checksum trailer
// — still load; they are re-validated structurally instead.
package modellib

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/regress"
)

// Library is a handle on one library directory.
type Library struct {
	root string
}

// Open returns a library rooted at dir, creating the directory layout if
// needed.
func Open(dir string) (*Library, error) {
	if dir == "" {
		return nil, fmt.Errorf("modellib: empty directory")
	}
	for _, sub := range []string{"models", "params"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("modellib: %w", err)
		}
	}
	return &Library{root: dir}, nil
}

// Root returns the library directory.
func (l *Library) Root() string { return l.root }

// modelKey builds the canonical file name of an instance model.
func modelKey(module string, width int, enhanced bool) string {
	name := fmt.Sprintf("%s-w%d", module, width)
	if enhanced {
		name += "-enhanced"
	}
	return name + ".json"
}

// PutModel stores a characterized instance model under (module, width).
func (l *Library) PutModel(module string, width int, model *core.Model) error {
	if err := model.Validate(); err != nil {
		return err
	}
	path := filepath.Join(l.root, "models", modelKey(module, width, model.HasEnhanced()))
	return atomicio.WriteJSON(path, model)
}

// loadModelFile reads, checksum-verifies, parses and validates one stored
// model file. Files that fail any of those stages are quarantined and
// reported as *atomicio.CorruptError.
func loadModelFile(path string) (*core.Model, error) {
	data, err := atomicio.ReadFile(path)
	if err != nil && !errors.Is(err, atomicio.ErrNoChecksum) {
		return nil, err
	}
	m, perr := core.LoadModel(data)
	if perr != nil {
		return nil, atomicio.MarkCorrupt(path, perr.Error())
	}
	return m, nil
}

// GetModel loads an instance model. With enhanced=true only an
// enhanced-table model satisfies the request; with enhanced=false an
// enhanced model is accepted too (it embeds the basic table).
func (l *Library) GetModel(module string, width int, enhanced bool) (*core.Model, error) {
	candidates := []string{modelKey(module, width, enhanced)}
	if !enhanced {
		candidates = append(candidates, modelKey(module, width, true))
	}
	for _, key := range candidates {
		m, err := loadModelFile(filepath.Join(l.root, "models", key))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	return nil, fmt.Errorf("modellib: no model for %s width %d (enhanced=%v) in %s",
		module, width, enhanced, l.root)
}

// Entry describes one stored instance model.
type Entry struct {
	Module   string
	Width    int
	Enhanced bool
}

// List enumerates stored instance models, sorted by module then width.
func (l *Library) List() ([]Entry, error) {
	files, err := os.ReadDir(filepath.Join(l.root, "models"))
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, f := range files {
		name := f.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		name = strings.TrimSuffix(name, ".json")
		enhanced := strings.HasSuffix(name, "-enhanced")
		name = strings.TrimSuffix(name, "-enhanced")
		idx := strings.LastIndex(name, "-w")
		if idx < 0 {
			continue // foreign file; skip silently
		}
		var width int
		if _, err := fmt.Sscanf(name[idx+2:], "%d", &width); err != nil || width <= 0 {
			continue
		}
		out = append(out, Entry{Module: name[:idx], Width: width, Enhanced: enhanced})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Module != out[b].Module {
			return out[a].Module < out[b].Module
		}
		if out[a].Width != out[b].Width {
			return out[a].Width < out[b].Width
		}
		return !out[a].Enhanced && out[b].Enhanced
	})
	return out, nil
}

// PutParam stores a fitted width-regression model for a module family.
func (l *Library) PutParam(pm *regress.ParamModel) error {
	path := filepath.Join(l.root, "params",
		fmt.Sprintf("%s-%s.json", pm.Module, pm.Basis.Name))
	return atomicio.WriteJSON(path, pm)
}

// GetParam loads the fitted regression model of a module family with the
// conventional basis for that family.
func (l *Library) GetParam(module string) (*regress.ParamModel, error) {
	basis := regress.BasisFor(module)
	path := filepath.Join(l.root, "params",
		fmt.Sprintf("%s-%s.json", module, basis.Name))
	data, err := atomicio.ReadFile(path)
	if err != nil && !errors.Is(err, atomicio.ErrNoChecksum) {
		if atomicio.IsCorrupt(err) {
			return nil, err
		}
		return nil, fmt.Errorf("modellib: %w", err)
	}
	pm, perr := regress.LoadParamModel(data)
	if perr != nil {
		return nil, atomicio.MarkCorrupt(path, perr.Error())
	}
	return pm, nil
}

// Model returns the model for (module, width), preferring a stored
// instance model and falling back to synthesis from the family's stored
// regression. The returned bool reports whether synthesis was used. A
// synthesized model that fails core.Model.Validate (a regression whose
// coefficients overflow at this width) is an error naming the regression.
func (l *Library) Model(module string, width int, enhanced bool) (*core.Model, bool, error) {
	if m, err := l.GetModel(module, width, enhanced); err == nil {
		return m, false, nil
	}
	if enhanced {
		return nil, false, fmt.Errorf("modellib: no enhanced model for %s width %d and synthesis cannot provide one", module, width)
	}
	pm, err := l.GetParam(module)
	if err != nil {
		return nil, false, fmt.Errorf("modellib: no model for %s width %d and no regression to synthesize from", module, width)
	}
	model := pm.Synthesize(width)
	if err := model.Validate(); err != nil {
		return nil, false, fmt.Errorf("modellib: %s regression for %s is invalid at width %d: %w", pm.Basis.Name, module, width, err)
	}
	return model, true, nil
}
