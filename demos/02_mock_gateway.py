"""The model gateway: templates, a scripted backend, response caching."""

from dataclasses import asdict

from tracer.gateway import Gateway, MockScript, ResponseCache

script = MockScript.from_dict(
    {
        "rules": [
            {"template": "nli", "contains": "part-time", "response": "B"},
            {"template": "nli", "response": "C"},
        ],
        "embeddings": [{"text": "jobs grew", "vector": [1.0, 0.0]}],
    }
)
gateway = Gateway(backend=script, cache=ResponseCache())

# a template is its text: gateway.templates maps each id to it
print(f"Bundled prompt templates ({len(gateway.templates)}):")
print("  " + ", ".join(sorted(gateway.templates)))

print()
print("A mock script answers by template id and optional prompt substring:")
first = gateway.complete("nli", premise="Most new roles were part-time.", hypothesis="Jobs grew.")
second = gateway.complete("nli", premise="The sun rose.", hypothesis="Jobs grew.")
print(f"  part-time premise -> {first}")
print(f"  unrelated premise -> {second}")

print()
print("Identical requests are served from the cache, not the backend:")
gateway.complete("nli", premise="Most new roles were part-time.", hypothesis="Jobs grew.")
counters = gateway.counters
print(f"  backend completions: {counters.completion_requests - counters.completion_cache_hits}")
print(f"  counters: {asdict(counters)}")

print()
vector = gateway.embed("jobs grew")
print(f"embed('jobs grew') -> {vector.vector.tolist()} from model {vector.model_id!r}")
