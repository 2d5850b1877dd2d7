// g++: 105
// ::size() inside a member runs the global size, not the member.
int size() { return 100; }
class Box {
public:
  int size() { return 5; }
  int total() { return ::size() + size(); }
};
int main() {
  Box b;
  return b.total();
}
