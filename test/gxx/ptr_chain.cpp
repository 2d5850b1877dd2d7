// g++: 34
// Two pointers to one node alias it, also through a pointer field.
class Node {
public:
  Node() : v(0), next(0) { }
  int v;
  Node *next;
};

int main() {
  Node *a = new Node();
  Node *c = new Node();
  Node *b = a;
  b->v = 3;
  a->next = c;
  b->next->v = 4;
  int r = a->v * 10 + c->v;
  delete a;
  delete c;
  return r;
}
