// g++: 7
// A pointer compares unequal to 0 until the list runs out.
class Node {
public:
  Node(int v, Node *next) : v(v), next(next) { }
  int v;
  Node *next;
};

int main() {
  Node c(4, 0);
  Node b(2, &c);
  Node a(1, &b);
  int s = 0;
  for (Node *n = &a; n != 0; n = n->next)
    s += n->v;
  return s;
}
