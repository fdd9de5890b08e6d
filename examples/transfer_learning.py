#!/usr/bin/env python3
"""Domain adaptation walkthrough (paper Secs. IV-E and VI-A).

Reenacts the paper's Kripke explanation step by step: estimate the noise on
the measurements, derive the task description (parameter-value sets, noise
range, repetitions), generate a task-specific synthetic training set,
retrain the pretrained generic network for one epoch, and show how the
classifier's accuracy on the task distribution improves -- the mechanism
behind the adaptive modeler's case-study gains.

Run:  python examples/transfer_learning.py        (~2 minutes)
"""

import time

import numpy as np

from repro.casestudies import kripke
from repro.dnn.domain_adaptation import AdaptationTask, adapt_network
from repro.dnn.pretrained import load_or_pretrain
from repro.nn.metrics import top_k_accuracy
from repro.noise.estimation import summarize_noise
from repro.synthesis.training import generate_training_set

# ---------------------------------------------------- the modeling task
app = kripke()
campaign = app.modeling_experiment(app.run_campaign(rng=42))
print(f"task: {app.name}, parameters {app.parameters}, "
      f"{len(campaign.coordinates())} modeling points")

# Step 1 (Sec. VI-A): estimate the noise on the measurements.
noise = summarize_noise(campaign)
print(f"estimated noise: {noise.format()}")
print("(paper found a mean of 17.44% and the range [3.66, 53.67]% here)\n")

# Step 2: derive everything retraining needs from the experiment itself.
task = AdaptationTask.from_experiment(campaign)
print("derived adaptation task:")
for l, values in enumerate(task.parameter_value_sets):
    print(f"  {app.parameters[l]}: {values}")
print(f"  noise range: [{task.noise_range[0] * 100:.2f}, {task.noise_range[1] * 100:.2f}]%")
print(f"  repetitions: {task.repetitions}\n")

# Step 3: retrain the pretrained generic network on a synthetic set that
# mirrors the task (the paper uses 2000 samples/class and one epoch).
print("loading the pretrained generic network ...")
generic = load_or_pretrain()
started = time.perf_counter()
adapted = adapt_network(generic, task, rng=0, samples_per_class=500)
print(f"domain adaptation took {time.perf_counter() - started:.1f}s "
      "(this is the overhead Fig. 6 reports)\n")

# Step 4: measure what adaptation bought, on held-out data drawn from the
# task's own distribution.
x_task, y_task = generate_training_set(task.training_config(40), rng=777)
for name, net in (("generic", generic), ("adapted", adapted)):
    top1 = top_k_accuracy(net.predict_proba(x_task), y_task, 1)
    top3 = top_k_accuracy(net.predict_proba(x_task), y_task, 3)
    print(f"{name:>8} network on the task distribution: "
          f"top-1 {top1 * 100:5.1f}%   top-3 {top3 * 100:5.1f}%")

print("\nThe adapted network specializes in exactly the sequences and noise")
print("levels of this campaign, which is why the adaptive modeler retrains")
print("before every modeling task despite the cost.")
