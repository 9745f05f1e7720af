"""XML similarity search under spelling errors (the paper's §1 motivation).

A small product-catalog XML corpus is indexed; a query document containing
typos and a missing element still retrieves its true counterpart, because
the tree edit distance tolerates relabelings and deletions — and the
BiBranch filter finds it while computing only a couple of exact distances.

Run with:  python examples/xml_document_search.py
"""

from repro import TreeDatabase, parse_xml_string
from repro.filters import BinaryBranchFilter

CATALOG = [
    """
    <product sku="100">
      <name>espresso machine</name>
      <brand>Aurora</brand>
      <specs><power>1200W</power><pressure>15bar</pressure></specs>
      <price currency="EUR">249</price>
    </product>
    """,
    """
    <product sku="101">
      <name>drip coffee maker</name>
      <brand>Aurora</brand>
      <specs><power>900W</power><capacity>1.2l</capacity></specs>
      <price currency="EUR">59</price>
    </product>
    """,
    """
    <product sku="102">
      <name>milk frother</name>
      <brand>Borealis</brand>
      <specs><power>500W</power></specs>
      <price currency="EUR">39</price>
    </product>
    """,
    """
    <book isbn="9780000000001">
      <title>The Art of Computer Programming</title>
      <author>Donald E. Knuth</author>
      <publisher>Addison-Wesley</publisher>
    </book>
    """,
    """
    <book isbn="9780000000002">
      <title>Transaction Processing</title>
      <author>Jim Gray</author>
      <author>Andreas Reuter</author>
      <publisher>Morgan Kaufmann</publisher>
    </book>
    """,
]

# the user's query: sku missing, one typo in the brand, power misspelled
QUERY = """
<product>
  <name>espresso machine</name>
  <brand>Aurora</brand>
  <specs><powr>1200W</powr><pressure>15bar</pressure></specs>
  <price currency="EUR">249</price>
</product>
"""


def main() -> None:
    documents = [parse_xml_string(text) for text in CATALOG]
    database = TreeDatabase(documents, flt=BinaryBranchFilter())

    query = parse_xml_string(QUERY)
    print(f"query tree has {query.size} nodes; database holds "
          f"{len(database)} documents\n")

    neighbors, stats = database.knn(query, k=2)
    print("2 most similar documents:")
    for index, distance in neighbors:
        root = documents[index]
        ident = root.children[0].label if root.children else "?"
        print(f"  #{index} <{root.label} {ident}>  edit distance {distance:g}")
    print(f"\nfilter effectiveness: computed {stats.candidates} exact "
          f"distances out of {stats.dataset_size} "
          f"({stats.accessed_percentage:.0f}% accessed)")

    matches, _ = database.range_query(query, 3)
    print(f"\ndocuments within edit distance 3: "
          f"{[index for index, _ in matches]}")
    assert neighbors[0][0] == 0, "the espresso machine should win"


if __name__ == "__main__":
    main()
