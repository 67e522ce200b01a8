#!/usr/bin/env python3
"""Full synthetic experiment: corpus -> features -> rank -> retrain -> eval.

Mirrors the production training flow on generated data: train a forest on
the full feature set, keep the top-k features by importance, retrain on
the reduced schema, and report held-out metrics plus a PCA export of the
selected features.

    python3 scripts/run_synthetic_experiment.py --n-per-class 60 --out results/
"""

import argparse
import csv
import json
import os
import time

from snatchdet.config import PipelineConfig
from snatchdet.features import full_schema
from snatchdet.forest import ForestConfig, predict, save_model, train
from snatchdet.experiment import binary_metrics, corpus_dataset, stratified_split
from snatchdet.selection import pca_project, select_top_k, write_pca_csv
from snatchdet.synth import generate_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-per-class", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--noise-sigma", type=float, default=1.5)
    parser.add_argument("--duration", type=float, default=6.0)
    parser.add_argument("--holdout", type=float, default=0.3)
    parser.add_argument("--n-trees", type=int, default=500)
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--out", default="results")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    cfg = PipelineConfig(n_trees=args.n_trees, top_k=args.top_k)
    schema = full_schema()

    started = time.perf_counter()
    print(f"generating {2 * args.n_per_class} clips (seed {args.seed}) ...")
    clips = generate_corpus(
        n_per_class=args.n_per_class,
        seed=args.seed,
        duration=args.duration,
        noise_sigma=args.noise_sigma,
    )
    dataset = corpus_dataset(clips, cfg, schema)
    train_set, holdout = stratified_split(dataset, args.holdout, seed=args.seed)
    print(f"extracted {len(dataset)} clip vectors "
          f"({len(train_set)} train / {len(holdout)} held out)")

    print(f"training full forest ({args.n_trees} trees, {len(schema)} features) ...")
    full_model = train(train_set, ForestConfig(n_trees=args.n_trees, seed=cfg.seed))
    selected = select_top_k(schema, full_model.importances, args.top_k)
    print(f"top {args.top_k} features by importance:")
    for rank, (name, imp) in enumerate(selected.ranked, start=1):
        print(f"  {rank:>2}  {name:<28} {100 * imp:.3f} x 10^-2")

    reduced_train = train_set.select_features(selected.schema.names)
    reduced_holdout = holdout.select_features(selected.schema.names)
    model = train(reduced_train, ForestConfig(n_trees=args.n_trees, seed=cfg.seed))
    model_path = os.path.join(args.out, "model.json")
    save_model(model, model_path)

    y_pred = [predict(model, row)[0] for row in reduced_holdout.X]
    metrics = binary_metrics(reduced_holdout.y.tolist(), y_pred)
    elapsed = time.perf_counter() - started
    print(
        f"held-out metrics: accuracy {metrics['accuracy']:.3f}  "
        f"precision {metrics['precision']:.3f}  recall {metrics['recall']:.3f}  "
        f"F1 {metrics['f1']:.3f}   ({elapsed:.1f}s total)"
    )

    pca = pca_project(reduced_holdout.X, n_components=2)
    pca_path = os.path.join(args.out, "pca_holdout.csv")
    write_pca_csv(pca_path, pca, list(reduced_holdout.ids), reduced_holdout.y.tolist())

    with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "metrics": metrics,
                "selected_features": [name for name, _ in selected.ranked],
                "train_size": len(reduced_train),
                "holdout_size": len(reduced_holdout),
                "elapsed_s": elapsed,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    with open(os.path.join(args.out, "importances.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "importance"])
        for name, imp in zip(schema.names, full_model.importances):
            writer.writerow([name, repr(float(imp))])
    print(f"artifacts written to {args.out}/ (model.json, metrics.json, pca_holdout.csv)")


if __name__ == "__main__":
    main()
