"""The running-shoes walkthrough: why keyword search misses and vectors don't.

A shopper asks for "comfortable running shoes under $100". None of the four
catalog entries contain the words "comfortable" or "under $100", so exact
matching returns nothing useful. Embedding both sides into the same space
turns the question into geometry: closest point wins, and the price cap
becomes a metadata filter on top.
"""

from contextdb import (Document, FixtureEmbedder, FlatIndex, euclidean_distance,
                       parse_filter)

print("== catalog ====================================================")

CATALOG = [
    ("nike-zoomx", "Nike ZoomX Infinity Run", 150),
    ("adidas-ultraboost", "Adidas UltraBoost", 120),
    ("reebok-floatride", "Reebok Floatride", 90),
    ("asics-gel-kayano", "ASICS Gel-Kayano", 110),
]

embedder = FixtureEmbedder()
index = FlatIndex()
for doc_id, name, price in CATALOG:
    vec = embedder.embed(name)
    index.insert(Document(id=doc_id, text=name,
                          metadata={"brand": name.split()[0], "price": price},
                          embedding=vec))
    print(f"{doc_id:<18} {str(vec.values.tolist()):<12} ${price}")

print()
print("== the question as a point ====================================")

question = "I need comfortable running shoes under $100"
q = embedder.embed(question)
print(f"question: {question}")
print(f"embedded: {q.values.tolist()}")

# Euclidean distance to every catalog point. The ASICS entry shares no
# keywords with the question either, yet lands second-closest.
print()
for doc_id, name, _ in CATALOG:
    d = euclidean_distance(index.get(doc_id).embedding, q)
    print(f"distance to {doc_id:<18} {d:.2f}")

print()
print("== nearest neighbours =========================================")

for hit in index.search(q, k=4):
    print(f"{hit.rank}. {hit.doc_id}  distance={hit.distance:.2f}")

print()
print("== hybrid: same search, budget enforced =======================")

# semantic closeness alone would hand back anything; the structured half
# of the question ("under $100") is exact, so it runs as a filter
filt = parse_filter("price<100")
hits = index.search_filtered(q, k=4, filt=filt)
for hit in hits:
    doc = index.get(hit.doc_id)
    print(f"{hit.rank}. {hit.doc_id}  distance={hit.distance:.2f}  "
          f"price={doc.metadata['price']}")

best = index.get(hits[0].doc_id)
print()
print(f"recommendation: {best.text} at ${best.metadata['price']}")

print()
print("== filters compose ============================================")

for text in ('price<120 && brand!="Reebok"',
             'brand in ("Nike", "Adidas")',
             "price>=110 && price<=120"):
    got = [h.doc_id for h in index.search_filtered(q, k=4,
                                                   filt=parse_filter(text))]
    print(f"{text:<32} -> {', '.join(got) if got else '(nothing)'}")
