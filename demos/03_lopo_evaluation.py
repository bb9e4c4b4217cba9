"""Full pipeline on a synthetic benchmark: selection, ridge fit and
leave-one-person-out evaluation with MAE and cumulative scores.
"""

import os
import tempfile

from glohage import dataset as ds
from glohage import featfile, metrics, pipeline

with tempfile.TemporaryDirectory(prefix="glohage_demo_") as work:
    spec = ds.SynthSpec(K=300, L=2, N=120, support_size=8, noise_sigma=0.3, seed=11)
    manifest = pipeline.synth_dataset(spec, work)
    print(f"synthetic corpus: {len(manifest.samples)} samples, "
          f"{len(ds.split_lopo(manifest))} persons -> {work}")
    # each fold reads its rows from the GFV1 file, as `glohage evaluate` does
    features = featfile.FeatureFile(os.path.join(work, "features.gfv"))
    config = pipeline.RunConfig(budget=20)
    report = pipeline.evaluate_lopo(manifest, features, config)

print(f"\npooled MAE: {report.mae:.3f} years over {report.n} test samples")
print(f"abs-error std: {report.err_std:.3f}")
print("cumulative scores:")
for j in (0, 1, 2, 5, 10):
    print(f"  CS({j:2d}) = {report.cs_curve[j]:.3f}")

worst = sorted(report.per_fold, key=lambda f: -f[2])[:3]
print("hardest held-out persons:")
for person, n, fold_mae in worst:
    print(f"  {person}: {n} images, fold MAE {fold_mae:.2f}")
