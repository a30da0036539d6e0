package experiments

import "fmt"

// Table1 reproduces Table I: final accuracy under IID on-device data, for
// FedZKT (global model) versus FedMD (mean on-device accuracy) on the four
// datasets, with two public-dataset choices for CIFAR-10 exposing FedMD's
// data dependency.
func Table1(p Params) (*Result, error) {
	t := &Table{
		ID:     "table1",
		Title:  "IID accuracy: FedZKT vs FedMD (public-dataset dependency)",
		Header: []string{"On-Device Dataset", "FedMD Public Dataset", "FedMD Accuracy", "FedZKT Accuracy"},
	}
	type cell struct {
		private string
		public  string
	}
	cells := []cell{
		{"synthmnist", "synthfashion"},
		{"synthfashion", "synthmnist"},
		{"synthkmnist", "synthfashion"},
		{"synthcifar10", "synthcifar100"},
		{"synthcifar10", "synthsvhn"},
	}
	// FedZKT runs once per private dataset; cache to avoid repeating the
	// CIFAR run for both public-dataset rows.
	zktAcc := map[string]float64{}
	for i, c := range cells {
		private, err := buildDataset(c.private, p)
		if err != nil {
			return nil, err
		}
		shards := shardsFor(private, p.Devices, "iid", p.Fed.Seed+uint64(i))
		archs := zooFor(c.private, p.Devices)

		if _, done := zktAcc[c.private]; !done {
			hist, err := runFedZKT(p.fedzktConfig(c.private, uint64(10+i)), private, archs, shards)
			if err != nil {
				return nil, fmt.Errorf("table1 fedzkt %s: %w", c.private, err)
			}
			zktAcc[c.private] = hist.FinalGlobalAcc()
		}

		public, err := buildDataset(c.public, p)
		if err != nil {
			return nil, err
		}
		mdHist, err := runFedMD(p.fedmdConfig(c.private, uint64(20+i)), private, public, archs, shards)
		if err != nil {
			return nil, fmt.Errorf("table1 fedmd %s/%s: %w", c.private, c.public, err)
		}
		t.AddRow(c.private, c.public, pct(mdHist.FinalMeanDeviceAcc()), pct(zktAcc[c.private]))
	}
	return &Result{Tables: []*Table{t}}, nil
}
