"""Build an instruction prompt, score reasoning traces, and sweep the filter.

No language model is involved: the offline adapter expands a fixed template,
and the four quality dimensions are computed from the trace text alone. The
point of the demo is the scoring surface, so we also feed in two handwritten
traces, one self-contradictory and one off-topic, and watch where they land.
"""

from fusionrec.cot import (
    FixtureAdapter,
    build_instruction_instance,
    filter_cots,
    generate_cot,
    render_sweep_report,
    score_cot,
    threshold_sweep,
)

catalog = {
    "m1": ("Spider-Man", "superhero adventure"),
    "m2": ("Captain America", "superhero origin story"),
    "m3": ("Iron Man", "superhero tech saga"),
    "m4": ("Edge of Tomorrow", "time loop war"),
    "m5": ("Oblivion", "post-apocalyptic mystery"),
}
candidates = [("m4", "Edge of Tomorrow", 0.81), ("m5", "Oblivion", 0.64)]
instance = build_instruction_instance(
    user="u7",
    history=["m1", "m2", "m3"],
    target="m4",
    prior_text="likelihood 81%",
    catalog=catalog,
    k_prompt=10,
    label=1,
    candidates=candidates,
)
print("--- prompt ---")
print(instance.text())

trace = generate_cot(FixtureAdapter(None), instance)
print("\n--- generated trace ---")
print(trace)

record = score_cot(instance, trace)
names = ("coherence", "completeness", "relevance", "consistency")
print("\n--- quality dimensions ---")
for name, value in zip(names, record.dims):
    print(f"{name:>13}: {value:.4f}")
print(f"{'composite':>13}: {record.score:.4f}")

# two weaker traces for contrast
contradictory = score_cot(
    instance,
    "Great pick, truly great. Terrible pick, truly terrible. Great pick, truly great.",
)
off_topic = score_cot(
    instance,
    "The weather report says rain tomorrow so bring an umbrella to the picnic.",
)
print(f"\ncontradictory trace scores {contradictory.score:.4f}, "
      f"off-topic trace {off_topic.score:.4f}")

records = [record, contradictory, off_topic]
retained, coverage = filter_cots(records, threshold=0.6)
print(f"filter at 0.6 keeps {len(retained)}/{len(records)} (coverage {coverage:.2f})")
print("the off-topic trace squeaks by: fluent nonsense needs the harsher 0.8 gate")

print("\n--- threshold sweep ---")
rows = threshold_sweep(
    records,
    [0.0, 0.2, 0.4, 0.6, 0.8],
    downstream_eval=lambda kept: {"kept": float(len(kept))},
)
print(render_sweep_report(rows), end="")
