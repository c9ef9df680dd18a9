package regress

import (
	"encoding/json"
	"fmt"
)

// BasisByName resolves a basis by its Name field; used when loading
// serialized parameterized models.
func BasisByName(name string) (Basis, error) {
	switch name {
	case Linear.Name:
		return Linear, nil
	case Quadratic.Name:
		return Quadratic, nil
	case Rectangular.Name:
		return Rectangular, nil
	}
	return Basis{}, fmt.Errorf("regress: unknown basis %q", name)
}

// paramModelJSON is the wire form of a ParamModel; the basis is recorded
// by name and resolved on load.
type paramModelJSON struct {
	Format      string      `json:"format"`
	Module      string      `json:"module"`
	Basis       string      `json:"basis"`
	WidthFactor int         `json:"width_factor"`
	R           [][]float64 `json:"r"`
	Residual    []float64   `json:"residual"`
}

// MarshalJSON serializes the parameterized model.
//
//hdlint:allow deadexport json.Marshaler: encoding/json calls it when hdpower fit and modellib write a regression
func (pm *ParamModel) MarshalJSON() ([]byte, error) {
	return json.Marshal(paramModelJSON{
		Format:      "hdpower-parammodel-v1",
		Module:      pm.Module,
		Basis:       pm.Basis.Name,
		WidthFactor: pm.WidthFactor,
		R:           pm.R,
		Residual:    pm.Residual,
	})
}

// LoadParamModel deserializes a parameterized model written by
// MarshalJSON.
func LoadParamModel(data []byte) (*ParamModel, error) {
	var w paramModelJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("regress: %w", err)
	}
	basis, err := BasisByName(w.Basis)
	if err != nil {
		return nil, err
	}
	if w.WidthFactor < 1 {
		return nil, fmt.Errorf("regress: width factor %d", w.WidthFactor)
	}
	if len(w.R) == 0 || len(w.Residual) != len(w.R) {
		return nil, fmt.Errorf("regress: inconsistent tables (%d vectors, %d residuals)",
			len(w.R), len(w.Residual))
	}
	for i, r := range w.R {
		if r != nil && len(r) != basis.Degree {
			return nil, fmt.Errorf("regress: class %d vector has %d terms, basis %q wants %d",
				i+1, len(r), basis.Name, basis.Degree)
		}
	}
	return &ParamModel{
		Module:      w.Module,
		Basis:       basis,
		WidthFactor: w.WidthFactor,
		R:           w.R,
		Residual:    w.Residual,
	}, nil
}
