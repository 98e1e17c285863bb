package mllibstar

import (
	"encoding/json"
	"fmt"
	"io"

	"mllibstar/internal/glm"
)

// modelFile is the on-disk representation of a trained model.
type modelFile struct {
	Format  string    `json:"format"`
	Loss    string    `json:"loss"`
	Weights []float64 `json:"weights"`
}

// modelFormat versions the serialization.
const modelFormat = "mllibstar-model-v1"

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	lossName := "hinge"
	if m.loss != nil {
		lossName = m.loss.Name()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(modelFile{Format: modelFormat, Loss: lossName, Weights: m.Weights})
}

// LoadModel reads a model previously written with Save.
func LoadModel(r io.Reader) (*Model, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("mllibstar: decoding model: %w", err)
	}
	if mf.Format != modelFormat {
		return nil, fmt.Errorf("mllibstar: unknown model format %q", mf.Format)
	}
	loss, err := glm.LossByName(mf.Loss)
	if err != nil {
		return nil, err
	}
	return &Model{Weights: mf.Weights, loss: loss}, nil
}
