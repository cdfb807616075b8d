"""Label-temperature sweep on the desk-scale trainable encoder.

The corpus realizes each semantic action under three annotation variants
(alias slot spellings with synonym surface tokens). No two distinct labels
have delta above 0.82, so at tau'=1e-4 every off-diagonal soft target
underflows to 0 and that row trains with the hard (supervised) loss, bit for
bit, splitting each action into its variants; tau' around 0.35 keeps variants
merged, which shows up as higher 5-shot F1 and higher anisotropy delta on
the true action labels.

Run: python demos/04_temperature_sweep.py  (a few seconds)
"""

from convflow.contrastive import single_items, sweep_tau_label
from convflow.synth import SWEEP_TOY, graded_label_rows

train_rows, eval_rows = graded_label_rows(seed=0)
print(f"corpus: {len(train_rows)} train / {len(eval_rows)} eval utterances, "
      f"{len({a.render() for _, _, _, a in train_rows})} annotated labels over "
      f"{len({a.render() for _, _, _, a in eval_rows})} true actions")

grid = [1e-4, 0.05, 0.2, 0.35, 0.6, 1.0]
rows = sweep_tau_label(single_items(train_rows), single_items(eval_rows), grid, seed=0, **SWEEP_TOY)

print(f"\n{'tau_label':>10}  {'F1_5shot':>9}  {'delta':>7}")
for tau_label, f1, delta in rows:
    print(f"{tau_label:>10.4g}  {f1:>9.3f}  {delta:>7.4f}")

hard = rows[0]
best = max(rows, key=lambda r: r[2])
print(f"\nhard-equivalent row (tau'={hard[0]:g}): F1 {hard[1]:.3f}, delta {hard[2]:.4f}")
print(f"best delta at tau'={best[0]:g}: F1 {best[1]:.3f}, delta {best[2]:.4f}")
print("\nsame sweep via the CLI: convflow sweep --corpus corpus.json "
      "--grid 0.05:1.0:0.05 --out sweep.tsv")
