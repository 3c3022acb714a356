// Ablation-only code: tests, benches and examples may include it.
